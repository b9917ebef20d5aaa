"""Terminating symmetric q-hypergeometric series and their identities.

Series parameters and arguments are carried as doubled ints (2a, 2e),
never as pre-evaluated reals, so the q <-> 1/q flips, the cutoffs and the
pattern matching behind the two 3F2 rewrites are integer arithmetic; a
label is parsed once, where a caller hands it in.  A closed sum is a
Pochhammer ratio read from the context's bracket tables, or a factorial
ratio read from its factorial tables, rounded once.
At q = 1 consecutive terms of a series differ by a ratio of integers,
so the sum is exact (``_exact_ratio``) and rounded once
(``_round_ratio``); an exact zero is then 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations, repeat

from .halfint import HalfInt, doubled
from .qcore import (GUARD_DIGITS, QDomainError, _as_index, _inverse_pair,
                    _qpow_pair, _times, factorial_pairs, qnum_pairs)


class SeriesIllPosed(ValueError):
    """A denominator Pochhammer vanishes inside the live summation range."""


class HyperSeriesSpec:
    """A terminating p+1_F_p instance with argument z = q^(sign*exponent),
    from labels (with ``arg_sign``) or from ``twice=(num, den, arg)``: the
    doubled parameters and the doubled signed exponent; given both, it
    raises TypeError, as ``CgcKey`` does."""

    __slots__ = ("twice",)

    def __init__(self, numerator=(), denominator=(), arg_exponent=0,
                 arg_sign=1, *, twice=None):
        if arg_sign not in (1, -1):
            raise ValueError("arg_sign must be +1 or -1")
        if twice is None:
            twice = (map(doubled, numerator), map(doubled, denominator),
                     doubled(arg_exponent) * arg_sign)
        elif numerator or denominator or arg_exponent or arg_sign != 1:
            raise TypeError("HyperSeriesSpec takes labels or twice=, not both")
        num, den, arg = twice
        self.twice = (tuple(num), tuple(den), arg)

    numerator = property(lambda self: _labels(self.twice[0]))
    denominator = property(lambda self: _labels(self.twice[1]))

    def signed_exponent(self):
        return HalfInt(twice=self.twice[2])

    def reciprocal(self):
        """The same series under q -> 1/q (argument sign flips)."""
        num, den, arg = self.twice
        return HyperSeriesSpec(twice=(num, den, -arg))


class BasicSeriesSpec:
    """A terminating basic series with parameters q^e and free argument z;
    ``twice=(num, den)`` gives the doubled parameters instead of labels,
    and labels given with it raise TypeError."""

    __slots__ = ("twice", "z")

    def __init__(self, numerator=(), denominator=(), z=None, *, twice=None):
        if twice is None:
            twice = map(doubled, numerator), map(doubled, denominator)
        elif numerator or denominator:
            raise TypeError("BasicSeriesSpec takes labels or twice=, not both")
        num, den = twice
        self.twice, self.z = (tuple(num), tuple(den)), z


def _labels(twices):
    return tuple(HalfInt(twice=t) for t in twices)


def _live_range(spec):
    """(n_eff, num, den, reach) of a terminating series: its cutoff, its
    doubled parameters and the largest |2x| of a bracket its terms read.
    Raises when a denominator vanishes inside the live range, which the
    numerator cutoffs fix a priori."""
    num, den = spec.twice[:2]
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


def _series_terms(n_eff, num, den, z, values, inverses, width, start=None):
    """Terms, as ``width``-bit (man, exp) pairs, of a terminating series:
    t_0 = ``start`` (a pair, 1 when None), and t_(k+1) is t_k times
    1 / [k+1] times prod [a+k] over prod [b+k] times z for k < n_eff,
    renormalised after each factor.

    ``num`` and ``den`` hold the doubled parameters 2a and 2b, z is a
    pair, and ``values[t]`` and ``inverses[t]`` are the pairs of the
    bracket at 2x = t and of its inverse, for t of either sign, laid out
    as in ``qnum_pairs``.
    """
    man, exp = start or (1 << (width - 1), 1 - width)
    yield man, exp
    factors = [(inverses, 2)]
    factors += [(values, t) for t in num]
    factors += [(inverses, t) for t in den]
    z_man, z_exp = z
    for k in range(0, 2 * n_eff, 2):
        for table, t in factors:  # _times, inlined in the hot loop
            m, e = table[t + k]
            man *= m
            shift = man.bit_length() - width
            man >>= shift
            exp += e + shift
        man *= z_man
        shift = man.bit_length() - width
        man >>= shift
        exp += z_exp + shift
        yield man, exp


def eval_terminating(spec, ctx, scale=None):
    """Evaluate a terminating symmetric q-hypergeometric series.

    ``scale``, when given, is the pair of a factor multiplying the
    series, made in ``ctx``.  It is the first term, and each later term
    is built from the one before, so every term has its true size: the
    guard measures the cancellation against them, and the product is
    rounded once.  A boosted pass reuses the pair, so an error common to
    every term is not amplified by their cancellation.  At q = 1 the
    terms are summed exactly, as integers over one denominator, and
    scaled and rounded once.  A scale of 0 gives an exact 0.  A series
    with cutoff 0 is its scale (or 1) rounded once into ``ctx``, at
    every q, with no bracket table and no guard: that is what the
    guarded sum of one term returns.

    Term i is the scale times i steps of 2 + len(num) + len(den) pairs
    each (1/[k+1], the parameters' brackets and z), so the factor count
    k of a rounding bound on a term is the length of the scale's reduced
    factor list (see ``cgc._scale``) plus those.
    """
    n_eff, num, den, reach = _live_range(spec)
    if scale and not scale[0]:
        return ctx.to_mpf(0)
    if not n_eff:
        return ctx.mp.mpf(scale or 1)
    if ctx.is_classical:
        # [t/2] = t/2 and z = 1, so term k+1 is term k times the integer
        # ratio prod (2a+2k) / (prod (2b+2k) (2k+2)), the powers of 2
        # balanced by ``shift``; the ratios run from the last k down
        shift = len(den) + 1 - len(num)
        ups = map(math.prod, zip(*(range(t + 2 * n_eff - 2, t - 1, -2)
                                   for t in num),
                                 repeat(1 << max(shift, 0), n_eff)))
        downs = map(math.prod, zip(*(range(t + 2 * n_eff - 2, t - 1, -2)
                                     for t in den),
                                   range(2 * n_eff, 0, -2),
                                   repeat(1 << max(-shift, 0))))
        one = 1 << (ctx.width - 1), 1 - ctx.width
        return _round_ratio(scale or one, *_exact_ratio(zip(ups, downs)), ctx)

    def terms(c):
        values, inverses = qnum_pairs(reach, c)
        return _series_terms(n_eff, num, den, _qpow_pair(spec.twice[2], c),
                             values, inverses, c.width, scale)

    return _sum_with_guard(terms, ctx)


def eval_basic(spec, ctx):
    """Evaluate a terminating basic series with (a;q)_k coefficients."""
    n_eff, num, den, reach = _live_range(spec)
    if ctx.is_classical:
        raise QDomainError("eval_basic: every 1 - q^t vanishes at q = 1")

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

    A summand is a (man, exp) pair of Python ints with value man * 2^exp.
    The kernel never touches mpmath's global precision.  The tables'
    pairs carry ``c.width`` = ``c.mp.prec`` + EXTRA_BITS bits.  A summand
    may be the unrenormalised product of a few such pairs; one built by a
    chain of products (a running q-power, a series term from the one
    before it) is renormalised to ``c.width`` bits after each factor, so
    that each product is at most two widths long and each factor costs at
    most about an ulp at that width.  The summands are added into one
    integer in units of 2^(peak - width), peak the top bit of the largest
    summand (the bits of a summand below that unit are dropped), and the
    total is rounded once into ``ctx``, boosted or not.

    The total is accurate relative to itself, or else to the absolute
    floor 10^-precision of the largest summand, in two passes at most.
    The guard digits of ``ctx.dps`` absorb a loss of up to GUARD_DIGITS
    between the largest summand and the total.  A larger loss, counted
    up to ``ctx.precision`` digits, reruns the summands once at that many
    more digits rounded up to a multiple of GUARD_DIGITS, in the context
    of that precision that ``ctx.with_precision`` keeps for later.
    """
    c = ctx
    while True:
        pairs, peak = [], None
        for m, e in terms(c):
            if m:
                pairs.append((m, e))
                if peak is None or e + m.bit_length() > peak:
                    peak = e + m.bit_length()
        total = base = lost = 0
        if pairs:
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
        c = ctx.with_precision(precision)


def _round_summand(man, exp, ctx):
    """``_sum_with_guard`` of the one summand man * 2^exp, bit for bit:
    man truncated to ``ctx.width`` bits, as the guard's unit truncates
    it, and rounded once into ``ctx``.  One term cancels nothing, so
    there is no pass to boost."""
    shift = man.bit_length() - ctx.width
    if shift > 0:
        man, exp = man >> shift, exp + shift
    return ctx.mp.mpf((man, exp))


def _exact_ratio(ratios):
    """(N, D) with N / D the sum over k >= 0 of prod_(i<k) up_i / down_i,
    from the integer ratios (up_i, down_i) of consecutive terms listed
    from the last to the first: the terms' sum over the first term,
    exact, in Horner fashion."""
    num = den = 1
    for up, down in ratios:
        den *= down
        num = den + up * num
    return num, den


def _round_ratio(pair, num, den, ctx):
    """The real of ``ctx`` nearest to pair * num / den, for ints num and
    den != 0: exactly 0 when num is 0, and otherwise within an ulp at
    ``ctx.width`` bits before its one rounding into ``ctx``."""
    if not num:
        return ctx.to_mpf(0)
    if den < 0:
        num, den = -num, -den
    man, exp = pair
    man *= num
    shift = max(0, ctx.width + den.bit_length() - man.bit_length())
    return ctx.mp.mpf(((man << shift) // den, exp - shift))


def _pochhammer_pair(num, den, power, ctx):
    """The pair of ``power`` times prod (a|q)_l over the doubled (2a, l)
    in ``num`` over that in ``den``, or (0, 0) when a numerator bracket
    is [0]; ``power`` is a pair, such as a q-power's.

    A pair reads the brackets at 2x = 2a, 2a + 2, ..., 2a + 2l - 2, so its
    end points give both its largest |2x| and whether it crosses [0].  The
    product is ``_times`` of the power, the numerator brackets and the
    denominator inverses, in that order, inlined.
    """
    reach = 0
    for pairs, zero in ((den, None), (num, (0, 0))):
        for t, l in pairs:
            if l > 0:
                end = t + 2 * l - 2
                if t <= 0 <= end and not t % 2:
                    if zero is None:
                        raise SeriesIllPosed("a denominator bracket vanishes")
                    return zero
                reach = max(reach, end, -t)
    values, inverses = qnum_pairs(reach, ctx)
    man, exp = power
    width = ctx.width
    for table, pairs in ((values, num), (inverses, den)):
        for t, l in pairs:
            for i in range(t, t + 2 * l, 2):
                m, e = table[i]
                man *= m
                shift = man.bit_length() - width
                man >>= shift
                exp += e + shift
    return man, exp


def _closed_sum(num, den, twice_power, ctx):
    """q^(twice_power/2) times a ``_pochhammer_pair`` ratio, rounded once."""
    return ctx.mp.mpf(_pochhammer_pair(num, den, _qpow_pair(twice_power, ctx),
                                       ctx))


@dataclass(frozen=True)
class Prefactor:
    """q^(twice_power/2) times a ratio of symmetric Pochhammer symbols,
    given as pairs (2a, n) of a doubled parameter and a length."""

    twice_power: int
    poch_num: tuple
    poch_den: tuple

    def value(self, ctx):
        return _closed_sum(self.poch_num, self.poch_den, self.twice_power, ctx)


def _match_321_pattern(spec):
    """Decompose a 3F2 spec as (-n, a, b; d, e | q, q^(pm*(a+b-n-d-e+1))),
    returning n and the doubled a, b, d, e."""
    num, den, arg = spec.twice
    if len(num) != 3 or len(den) != 2:
        raise QDomainError("transformation requires a 3F2 spec")
    for i, minus_n in enumerate(num):
        if minus_n > 0 or minus_n % 2:
            continue
        n = -minus_n // 2
        rest = [num[k] for k in range(3) if k != i]
        for a, b in permutations(rest):
            for d, e in permutations(den):
                t = a + b - 2 * n - d - e + 2
                for pm in (1, -1):
                    if t * pm == arg:
                        return n, a, b, d, e, pm
    raise QDomainError("spec does not match the 3F2 transformation pattern")


def transform_142(spec):
    """Rewrite via the first 3F2 transformation; value is preserved.

    Returns (new_spec, prefactor) with
    value(spec) = prefactor * value(new_spec).
    """
    n, a, b, d, e, pm = _match_321_pattern(spec)
    new = HyperSeriesSpec(twice=((-2 * n, a, d - b), (d, a - e - 2 * n + 2),
                                 pm * (b - e)))
    return new, Prefactor(pm * a * n, ((e - a, n),), ((e, n),))


def transform_141(spec):
    """Rewrite via the second 3F2 transformation; value is preserved."""
    n, a, b, d, e, pm = _match_321_pattern(spec)
    new = HyperSeriesSpec(twice=(
        (-2 * n, a, a + b - d - e - 2 * n + 2),
        (a - d - 2 * n + 2, a - e - 2 * n + 2), pm * b))
    return new, Prefactor(0, ((d - a, n), (e - a, n)), ((d, n), (e, n)))


def vandermonde_spec(n, b, c, sign):
    """The 2F1 instance summed by the q-Vandermonde formula."""
    n, b, c = _as_index(n), doubled(b), doubled(c)
    return HyperSeriesSpec(twice=((-2 * n, b), (c,), sign * (b - c - 2 * n + 2)))


def closed_sum_vandermonde(n, b, c, sign, ctx):
    """q-Vandermonde closed form (c-b|q)_n/(c|q)_n * q^(pm*n*b)."""
    n, b, c = _as_index(n), doubled(b), doubled(c)
    if n < 0:
        raise QDomainError("vandermonde: n must be nonnegative")
    if c <= 0 and not c % 2 and 2 * n > -c:
        raise QDomainError("vandermonde: n < |c| required for negative integer c")
    return _closed_sum([(c - b, n)], [(c, n)], sign * n * b, ctx)


def closed_sum_positive(n, b, c, sign, ctx):
    """Factorial form of the q-Vandermonde sum for positive integers, c > b:
    [c-b-1+n]! [c-1]! / ([c-b-1]! [c-1+n]!) q^(pm*b*n), one product of
    ``factorial_pairs`` entries and the q-power, rounded once.

    The parent display drops a factorial mark on the [c-1+n] denominator;
    matching the series numerically confirms it must read [c-1+n]!.
    """
    n, b, c = _as_index(n), _as_index(b), _as_index(c)
    if not (n >= 0 and b > 0 and c > b and n < min(b, c)):
        raise QDomainError("closed_sum_positive requires n,b,c in Z+, n<min(b,c), c>b")
    fact, inverse = factorial_pairs(c - 1 + n, ctx)
    return ctx.mp.mpf(_times(*_qpow_pair(2 * sign * b * n, ctx),
                             (fact[c - b - 1 + n], fact[c - 1],
                              inverse[c - b - 1], inverse[c - 1 + n]),
                             ctx.width))


def closed_sum_negative(n, b, c, sign, ctx):
    """Closed form of 2F1(-n,-b;-c | q, q^(pm*(b-c+n-1))) for b > c > 0:
    (-1)^n [c-n]! [b+n-c-1]! / ([c]! [b-c-1]!) q^(pm*b*n), one product of
    ``factorial_pairs`` entries and the q-power, rounded once."""
    n, b, c = _as_index(n), _as_index(b), _as_index(c)
    if not (n >= 0 and c > 0 and b > c and n < min(b, c)):
        raise QDomainError("closed_sum_negative requires b>c>0 and n<min(b,c)")
    fact, inverse = factorial_pairs(max(c, b + n - c - 1), ctx)
    man, exp = _times(*_qpow_pair(2 * sign * b * n, ctx),
                      (fact[c - n], fact[b + n - c - 1],
                       inverse[c], inverse[b - c - 1]), ctx.width)
    return ctx.mp.mpf((-man if n % 2 else man, exp))


def negative_spec(n, b, c, sign):
    """The 2F1 instance summed by closed_sum_negative."""
    n, b, c = _as_index(n), doubled(b), doubled(c)
    return HyperSeriesSpec(twice=((-2 * n, -b), (-c,),
                                  sign * (b - c + 2 * n - 2)))


def dixon_spec(n, b, c):
    """The 3F2 instance summed by the terminating q-Dixon formula."""
    n, b, c = _as_index(n), doubled(b), doubled(c)
    return HyperSeriesSpec(twice=((-4 * n, b, c),
                                  (2 - 4 * n - b, 2 - 4 * n - c), 2))


def closed_sum_dixon(n, b, c, ctx):
    """Terminating q-Dixon sum: q^n [2n]! (b+c+n|q)_n / ([n]! (b+n|q)_n (c+n|q)_n)."""
    n, b, c = _as_index(n), doubled(b), doubled(c)
    if n < 0:
        raise QDomainError("dixon: n must be nonnegative")
    return _closed_sum([(2 * n + 2, n), (b + c + 2 * n, n)],
                       [(b + 2 * n, n), (c + 2 * n, n)], 2 * n, ctx)


def connection_pair(num_exps, den_exps, z_exp, ctx):
    """Build both sides of the basic/symmetric connection identity.

    phi(q^a1..; q^b1.. | q, q^z) equals F(a1..; b1.. | q^(1/2), w) where
    w = q^(z + (sum a - sum b - 1)/2), i.e. w has exponent
    2*z + sum a - sum b - 1 in the base q^(1/2).

    Returns (basic_spec, f_spec); evaluate the former in ctx (base q) and
    the latter in a context at sqrt(q).
    """
    num = tuple(map(doubled, num_exps))
    den = tuple(map(doubled, den_exps))
    z_exp = doubled(z_exp)
    basic = BasicSeriesSpec(twice=(num, den), z=ctx.qpow(Fraction(z_exp, 2)))
    shifted = 2 * z_exp + sum(num) - sum(den) - 2
    return basic, HyperSeriesSpec(twice=(num, den, shifted))
