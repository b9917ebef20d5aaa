"""Symmetric q-number primitives over configurable-precision reals.

Everything is built on the symmetric quantum number
``[x] = (q^x - q^-x)/(q - q^-1)``, which is invariant under q <-> 1/q.
A :class:`QContext` carries the deformation parameter, the mpmath
context of its working precision, memo tables for factorials and
Pochhammer symbols, and the integer (man, exp) tables of factorials and
brackets that the series kernel in :mod:`qcgc.qhyper` sums from.

The symmetric q-Gamma function is related to a classical q-Gamma at base
q^2: requiring Gamma_tilde(n+1) = [n]! forces that base (the symmetric
[x] at base q equals q^(1-x) times the classical q-number at base q^2).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

import mpmath

from .halfint import HalfInt, doubled

# Digits carried beyond the requested precision, which absorb the
# cancellation of an alternating sum without a rerun.  Of 1112 Racah sums
# at spins 20-120 and q = 0.9, 0.99 and 1, 133 lose more than 10 digits,
# but only 4 near-zero sums at q = 1 lose more than 20.  The closed forms,
# tables and terminating series sum exactly at q = 1, without the guard.
GUARD_DIGITS = 20

# Bits that the (man, exp) pairs of the fixed-point series kernel carry
# beyond ``ctx.mp.prec``: a mantissa has ctx.width = mp.prec + EXTRA_BITS
# bits.  The pair tables are made at that width from pairs alone, within
# the bounds that qnum_pairs and factorial_pairs state ([361]!, the largest
# a sum at spins up to 120 reads, within 3.3e5 units of 2^(1-width)), and
# products are renormalised to it after each factor, each truncation
# costing less than an ulp at width, at most about 250 per summand.  A
# summand is then within a few ulps at mp.prec, which the guard digits
# absorb.  Against precision 150, at precision 50, the worst of 404 Racah
# values (101 seeded keys at spins 20-120, q = 0.3, 0.99, 1 and 1.25) is
# off by 5.3e-58 relative with no extra bits, 1.9e-60 with 8, 6.8e-63
# with 16 and 8.6e-72 with 64.
EXTRA_BITS = 16


class QDomainError(ValueError):
    """Argument outside the domain of a q-primitive."""


class QContext:
    """Deformation parameter, working precision and memo tables.

    Each context works in an mpmath context, ``mp``, at ``precision``
    plus GUARD_DIGITS digits, and every real it makes belongs to it, so
    the precision travels with the numbers instead of living in mpmath's
    global state.  Every QContext at one precision shares one ``mp``,
    made once per process: never change its precision, ask
    ``with_precision`` for a context at another.  Contexts are therefore
    safe to use from different threads, at one precision or several.
    Immutable after construction except for the caches, which are only
    ever filled with values that are bit-identical to recomputation
    (guarded by a lock for concurrent use).
    """

    def __init__(self, q="0.5", precision=50, invert=False):
        if precision < 30:
            raise QDomainError("precision must be at least 30 significant digits")
        self.precision = int(precision)
        self.dps = self.precision + GUARD_DIGITS
        self.mp = _shared_mp(mpmath.libmp.dps_to_prec(self.dps))
        # keep the exact constructor argument so derived contexts
        # (reciprocal base, boosted precision) can re-evaluate q without
        # inheriting rounding from this context
        self._q_arg = q
        self._invert = bool(invert)
        self.q = self.to_mpf(q)
        if not self.q > 0:
            raise QDomainError("q must be positive")
        if self._invert:
            self.q = 1 / self.q
        self.qinv = 1 / self.q
        self.is_classical = self.q == 1
        # relative tolerance with an absolute floor, leaving guard digits
        # for cancellation in alternating sums
        self.tol = self.to_mpf(10) ** -(self.precision - 10)
        self.width = self.mp.prec + EXTRA_BITS
        self._cache = {}
        self._lock = threading.Lock()
        # (man, exp) pairs of [n]! and 1/[n]! by n, of their square roots
        # by n, and of [x] and 1/[x] by 2x of either sign ([0] = 0 has no
        # inverse); see factorial_pairs, root_factorial_pairs, qnum_pairs
        one = 1 << (self.width - 1), 1 - self.width
        self._factorials = ([one], [one])
        self._root_factorials = ([], [])
        # the pairs of q and 1/q, from q parsed at width bits, and of
        # q^(1/2) and q^(-1/2), from which _qpow_pair squares
        q_pair = _as_pair(_real(_shared_mp(self.width), q), self.width)
        powers = q_pair, _inverse_pair(q_pair, self.width)
        self._unit_powers = powers[::-1] if self._invert else powers
        half = _sqrt_pair(self._unit_powers[0], self.width)
        self._half_powers = (half, _inverse_pair(half, self.width))
        # [0], [1/2] and [1], and the powers q^x that qnum_pairs adds to
        # q^-1 [x] next, by 2x mod 2
        first = [_inverse_pair(_add(*self._half_powers, self.width),
                               self.width), one]
        self._brackets = (_widen([(0, 0)], first), _widen(
            [None], [_inverse_pair(p, self.width) for p in first]))
        self._bracket_powers = [self._unit_powers[0], half]

    def work(self):
        """Set mpmath's global precision to this context's, for a caller's
        own code on module-level mpmath reals; qcgc itself never needs it."""
        return mpmath.mp.workdps(self.dps)

    def reciprocal(self):
        """A context with q -> 1/q at identical precision, kept for later."""
        return self._memo(("reciprocal",), lambda: QContext(
            q=self._q_arg, precision=self.precision, invert=not self._invert))

    def with_precision(self, precision):
        """The same deformation parameter at a different precision, kept
        for later as ``reciprocal`` keeps its context."""
        return self._memo(("precision", precision), lambda: QContext(
            q=self._q_arg, precision=precision, invert=self._invert))

    def to_mpf(self, x):
        """HalfInt, Fraction, int, str, float or any mpmath real as a real
        of this context; a float goes through its decimal string."""
        return _real(self.mp, x)

    def to_pair(self, x):
        """x as a (man, exp) pair, man * 2^exp, with a ``width``-bit man."""
        return _as_pair(self.to_mpf(x), self.width)

    def qpow(self, e):
        """q raised to an exact half-integer/rational exponent.

        On the half-integer lattice (see ``_lattice_twice``) this is the
        pair of ``_qpow_pair`` rounded once, memoised by 2e as ``qnum`` is;
        any other exponent takes a real power.
        """
        twice = _lattice_twice(e)
        if twice is None:
            return self.q ** self.to_mpf(e)
        return self._memo(("qpow", twice),
                          lambda: self.mp.mpf(_qpow_pair(twice, self)))

    def close(self, a, b, scale=1):
        """True if a and b agree to the context tolerance (relative, with floor)."""
        a, b = self.to_mpf(a), self.to_mpf(b)
        return abs(a - b) <= self.tol * max(abs(scale), abs(a), abs(b), 1)

    def _memo(self, key, compute):
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            with self._lock:
                return self._cache.setdefault(key, value)


_MP_CONTEXTS = {}
_MP_LOCK = threading.Lock()


def _shared_mp(prec):
    """The mpmath context at prec bits, made once per process (filled as
    ``QContext._memo`` fills its cache) and shared by every QContext that
    asks for it; nothing changes its precision.  Its ``dps`` is the one
    that ``dps_to_prec`` maps to prec, as the two conversions round-trip."""
    try:
        return _MP_CONTEXTS[prec]
    except KeyError:
        mp = mpmath.MPContext()
        mp.prec = prec
        with _MP_LOCK:
            return _MP_CONTEXTS.setdefault(prec, mp)


def _real(mp, x):
    """``QContext.to_mpf`` in the mpmath context mp."""
    mpf = mp.mpf
    if isinstance(x, HalfInt):
        return mpf(x.twice) / 2
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    if isinstance(x, (int, str)) or hasattr(x, "_mpf_"):
        return mpf(x)
    return mpf(str(x))


def _as_pair(value, width):
    """A real of at most width bits as a (man, exp) pair, man * 2^exp,
    with a width-bit man."""
    sign, man, exp, bc = value._mpf_
    shift = width - bc
    return (-man if sign else man) << shift, exp - shift


def _lattice_twice(x):
    """2x, read by ``doubled``, for an x on the half-integer lattice: a
    HalfInt, an int or a Fraction with denominator 1 or 2; else None."""
    if isinstance(x, HalfInt) or isinstance(x, (int, Fraction)) \
            and x.denominator <= 2:
        return doubled(x)
    return None


def qnum(x, ctx):
    """Symmetric quantum number [x] = (q^x - q^-x)/(q - q^-1)."""
    twice = _lattice_twice(x)
    if twice is not None:
        return _bracket(twice, ctx)
    if ctx.is_classical:
        return ctx.to_mpf(x)
    return _qnum_raw(ctx.to_mpf(x), ctx)


def _bracket(twice, ctx):
    """[twice/2], memoised by twice as ``qnum`` memoises a lattice x."""
    if ctx.is_classical:
        return ctx.mp.mpf(twice) / 2
    return ctx._memo(("num", twice),
                     lambda: _qnum_raw(ctx.mp.mpf(twice) / 2, ctx))


def _qnum_raw(xv, ctx):
    return (ctx.q ** xv - ctx.q ** -xv) / (ctx.q - ctx.qinv)


def q_factorial(n, ctx):
    """Symmetric q-factorial [n]! = [1][2]...[n]."""
    n = _as_index(n)
    if n < 0:
        raise QDomainError(f"q_factorial: negative argument {n}")
    return ctx._memo(("fact", n), lambda: _q_factorial_raw(n, ctx))


def _q_factorial_raw(n, ctx):
    # [k]! = [k-1]! [k], filling the table upward so that a cold [n]!
    # costs no recursion depth
    value = ctx.to_mpf(1)
    for k in range(1, n):
        value = ctx._memo(("fact", k), lambda: value * _bracket(2 * k, ctx))
    return value * _bracket(2 * n, ctx) if n else value


def _sqrt_pair(pair, width):
    """The width-bit pair of sqrt(x) from the pair of a positive x."""
    man, exp = pair
    # shift man to 2*width bits or one fewer, leaving an even exponent, so
    # that the integer square root has exactly width bits
    shift = 2 * width - man.bit_length()
    if (exp - shift) % 2:
        shift -= 1
    return math.isqrt(man << shift), (exp - shift) // 2


def _qpow_pair(twice, ctx):
    """q^(twice/2) as a ``ctx.width``-bit pair, memoised by twice.

    Square-and-multiply from the pair of q^(1/2) or q^(-1/2) made with
    the context, renormalised after each product: about 2 log2|twice|
    products, whatever the exponent.
    """
    return ctx._memo(("qpow_pair", twice),
                     lambda: _square_and_multiply(twice, ctx))


def _square_and_multiply(twice, ctx):
    width = ctx.width
    if twice == 0 or ctx.is_classical:
        return 1 << (width - 1), 1 - width
    man, exp = ctx._half_powers[twice < 0]
    n = abs(twice)
    result = None
    while True:
        if n & 1:
            result = (man, exp) if result is None else _renormalise(
                result[0] * man, result[1] + exp, width)
        n >>= 1
        if not n:
            return result
        man, exp = _renormalise(man * man, 2 * exp, width)


def _renormalise(man, exp, width):
    """man * 2^exp rounded down to a width-bit mantissa (man has more)."""
    shift = man.bit_length() - width
    return man >> shift, exp + shift


def _times(man, exp, pairs, width):
    """man * 2^exp times each nonzero pair of ``pairs``, renormalised to
    a width-bit mantissa after every product, so that no product is
    longer than two widths; (1, 0) starts an empty product."""
    for m, e in pairs:  # _renormalise, inlined
        man *= m
        shift = man.bit_length() - width
        man >>= shift
        exp += e + shift
    return man, exp


def factorial_pairs(n, ctx):
    """Lists of the pairs of [k]! and of 1/[k]!, by k = 0..n at least.

    [k]! = [k-1]! [k] through ``_times``, from the ``qnum_pairs``
    brackets.  Each product truncates by less than u = 2^(1-width)
    relative and [k] is within 5(k - 1) u, so to first order in u the
    pair of [n]! is within 5n^2/2 u of [n]! and that of 1/[n]! within 2u
    more.  The lists grow in place under ``ctx._lock``, from their last
    entries, so every order of growth makes the same pairs.
    """
    if n < 0:
        raise QDomainError(f"q_factorial: negative argument {n}")
    values, inverses = ctx._factorials
    if len(inverses) <= n:
        brackets = qnum_pairs(2 * n, ctx)[0]  # the lock is not reentrant
        with ctx._lock:
            # each value before its inverse, so that a reader that finds
            # an inverse finds its value too
            for k in range(len(inverses), n + 1):
                values.append(_times(*values[-1], (brackets[2 * k],), ctx.width))
                inverses.append(_inverse_pair(values[-1], ctx.width))
    return values, inverses


def root_factorial_pairs(n, ctx):
    """Lists of the pairs of sqrt([k]!) and of 1/sqrt([k]!), by k = 0..n
    at least; the square roots of the ``factorial_pairs`` entries, so
    that sqrt([k]) is sqrt([k]!) / sqrt([k-1]!)."""
    roots, inverses = ctx._root_factorials
    if len(inverses) <= n:
        table = factorial_pairs(n, ctx)[0]
        with ctx._lock:
            for k in range(len(inverses), n + 1):
                roots.append(_sqrt_pair(table[k], ctx.width))
                inverses.append(_inverse_pair(roots[-1], ctx.width))
    return roots, inverses


def qnum_pairs(twice, ctx):
    """Lists of the pairs of [x] and of 1/[x], indexed by 2x over
    -twice..twice at least.

    Each list holds 2x = 0..R and then -R..-1, so that Python's negative
    indexing reads [-x] = -[x] at a negative 2x.  An index beyond R reads
    a wrong entry instead of raising, so a caller asks for the largest
    |2x| it reads.  Growth replaces both lists, so lists a caller holds
    stay valid.

    The entries come from pairs alone: [1/2] = 1/(q^(1/2) + q^(-1/2)),
    [1] = 1 and [x+1] = q^-1 [x] + q^x, two positive terms at every q > 0,
    with q parsed at ``width`` bits and q^x a running product.  Each step
    adds less than 5u, u = 2^(1-width), to the relative error, so to first
    order the pair of [x] is within 5(|x| - 1) u at an integer x != 0 and
    (5|x| + 5) u at a half-integer x, that of 1/[x] within 2u more; at
    q = 1 the brackets are exact.  The chain grows under ``ctx._lock``,
    from its last two entries and the running powers that the context
    keeps, so every order of growth makes the same pairs.
    """
    if len(ctx._brackets[0]) // 2 < twice:
        with ctx._lock:
            values, inverses = ctx._brackets
            reach, width = len(values) // 2, ctx.width
            (qm, qe), (im, ie) = ctx._unit_powers
            powers, chain = ctx._bracket_powers, values[reach - 1:reach + 1]
            for t in range(reach + 1, twice + 1):
                (m, e), (pm, pe) = chain[-2], powers[t % 2]
                chain.append(_add(_renormalise(m * im, e + ie, width),
                                  (pm, pe), width))
                powers[t % 2] = _renormalise(pm * qm, pe + qe, width)
            new = chain[2:]
            ctx._brackets = (_widen(values, new), _widen(
                inverses, [_inverse_pair(p, width) for p in new]))
    return ctx._brackets


def _add(a, b, width):
    """The width-bit pair of a + b from the pairs of two positive reals,
    truncated by less than 2^(2-width) relative."""
    (am, ae), (bm, be) = (a, b) if a[1] >= b[1] else (b, a)
    return _renormalise(am + (bm >> (ae - be)), ae, width)


def _widen(table, new):
    """A qnum_pairs list (2x = 0..R, then -R..-1) with the pairs of
    2x = R+1, R+2, ... from ``new`` and their negations added."""
    reach = len(table) // 2
    return (table[:reach + 1] + new + [(-m, e) for m, e in reversed(new)]
            + table[reach + 1:])


def _inverse_pair(pair, width):
    """The width-bit pair of 1/x from the pair of x."""
    man, exp = pair
    return _renormalise((1 << 2 * width) // man, -2 * width - exp, width)


def q_pochhammer(a, n, ctx):
    """Symmetric q-Pochhammer (a|q)_n = [a][a+1]...[a+n-1]."""
    n = _as_index(n)
    if n < 0:
        raise QDomainError(f"q_pochhammer: negative length {n}")
    twice = _lattice_twice(a)
    if twice is not None:
        return _q_pochhammer_twice(twice, n, ctx)
    return math.prod((qnum(ctx.to_mpf(a) + m, ctx) for m in range(n)),
                     start=ctx.to_mpf(1))


def _q_pochhammer_twice(twice, n, ctx):
    """(twice/2|q)_n from the memoised brackets, memoised by twice."""
    return ctx._memo(("poch", twice, n), lambda: math.prod(
        (_bracket(t, ctx) for t in range(twice, twice + 2 * n, 2)),
        start=ctx.to_mpf(1)))


def q_binomial(n, k, ctx):
    """Symmetric q-binomial [n]!/([k]![n-k]!); returns 0 outside 0 <= k <= n."""
    n, k = _as_index(n), _as_index(k)
    if k < 0 or k > n:
        return ctx.to_mpf(0)
    return q_factorial(n, ctx) / (q_factorial(k, ctx) * q_factorial(n - k, ctx))


def q_gamma_classical(s, ctx):
    """Classical q-Gamma at base q^2 (the base the symmetric calculus lives on).

    For 0 < base < 1 the infinite products are truncated once the
    multiplicative tail deviates from 1 by less than 10^-(precision+5);
    base > 1 is routed through the reciprocal base.
    """
    sv = ctx.to_mpf(s)
    if sv <= 0 and sv == ctx.mp.floor(sv):
        raise QDomainError(f"q-Gamma pole at s={s}")
    if ctx.is_classical:
        return ctx.mp.gamma(sv)
    base = ctx.q ** 2
    return _gamma_base(sv, base, ctx)


def _gamma_base(sv, base, ctx):
    if base > 1:
        rb = 1 / base
        return base ** ((sv - 1) * (sv - 2) / 2) * _gamma_base(sv, rb, ctx)
    cutoff = ctx.to_mpf(10) ** -(ctx.precision + 5)
    num = 1
    den = 1
    # running powers base^(k+1) and base^(sv+k), one multiply per factor
    power_num = base
    power_den = base ** sv
    while True:
        num *= 1 - power_num
        den *= 1 - power_den
        if power_num < cutoff and abs(power_den) < cutoff:
            break
        power_num *= base
        power_den *= base
    return (1 - base) ** (1 - sv) * num / den


def q_gamma_tilde(s, ctx):
    """Symmetric q-Gamma: Gamma_tilde(n+1) = [n]! for integer n >= 0.

    At a half-integer s it is Gamma_tilde(1/2), memoised on the context,
    times (1/2|q)_(s-1/2), or divided by (s|q)_(1/2-s) when s < 1/2, by
    the functional equation Gamma_tilde(x+1) = [x] Gamma_tilde(x); other
    real arguments evaluate the truncated infinite products.
    """
    sv = ctx.to_mpf(s)
    if sv <= 0 and sv == ctx.mp.floor(sv):
        raise QDomainError(f"q-Gamma pole at s={s}")
    if ctx.is_classical:
        return ctx.mp.gamma(sv)
    if sv == ctx.mp.floor(sv):
        # factorial shortcut for positive integer arguments
        return q_factorial(int(sv) - 1, ctx)
    if 2 * sv == ctx.mp.floor(2 * sv):
        gamma_half = ctx._memo(("gamma_half",), lambda: _gamma_tilde_raw(
            ctx.mp.mpf(1) / 2, ctx))
        twice = int(2 * sv)
        if twice > 0:
            return gamma_half * _q_pochhammer_twice(1, (twice - 1) // 2, ctx)
        return gamma_half / _q_pochhammer_twice(twice, (1 - twice) // 2, ctx)
    return _gamma_tilde_raw(sv, ctx)


def _gamma_tilde_raw(sv, ctx):
    base = ctx.q ** 2
    return base ** (-(sv - 1) * (sv - 2) / 4) * _gamma_base(sv, base, ctx)


def _as_index(n):
    """An integer index from an int, an integral HalfInt or an integral
    float; anything else raises QDomainError."""
    if isinstance(n, int):
        return n
    if isinstance(n, HalfInt) and n.is_integer:
        return n.as_int()
    if isinstance(n, float) and n.is_integer():
        return int(n)
    raise QDomainError(f"expected an integer index, got {n!r}")
