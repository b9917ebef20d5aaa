"""Symmetric q-number primitives over configurable-precision reals.

Everything is built on the symmetric quantum number
``[x] = (q^x - q^-x)/(q - q^-1)``, which is invariant under q <-> 1/q.
A :class:`QContext` carries the deformation parameter, its own mpmath
context at the working precision, memo tables for factorials and
Pochhammer symbols, and the integer (man, exp) tables of factorials and
brackets that the series kernel in :mod:`qcgc.qhyper` sums from.

The symmetric q-Gamma function is related to a classical q-Gamma at base
q^2: requiring Gamma_tilde(n+1) = [n]! forces that base (the symmetric
[x] at base q equals q^(1-x) times the classical q-number at base q^2).
"""

from __future__ import annotations

import threading
from fractions import Fraction

import mpmath

from .halfint import HalfInt

# Digits carried beyond the requested precision, which absorb the
# cancellation of an alternating sum without a rerun.  Of 1112 Racah sums
# at spins 20-120 and q = 0.9, 0.99 and 1, 133 lose more than 10 digits,
# but only 4 near-zero sums at q = 1 lose more than 20.
GUARD_DIGITS = 20

# Bits that the (man, exp) pairs of the fixed-point series kernel carry
# beyond ``ctx.mp.prec``: a mantissa has ctx.width = mp.prec + EXTRA_BITS
# bits.  Against precision 150, at precision 50, the worst of 404 Racah
# values at spins 20-120 (q = 0.3, 0.99, 1, 1.25) is off by 2.7e-53 with
# no extra bits, 2.5e-55 with 8 and 1.6e-55 with 16 to 64; 64 leaves room
# for the roundings of longer sums (about a bit per doubling of the terms).
EXTRA_BITS = 64


class QDomainError(ValueError):
    """Argument outside the domain of a q-primitive."""


class QContext:
    """Deformation parameter, working precision and memo tables.

    Each context owns an mpmath context, ``mp``, at ``precision`` plus
    GUARD_DIGITS digits, and every real it makes belongs to it, so the
    precision travels with the numbers instead of living in mpmath's
    global state.  Contexts at different precisions are therefore safe
    to use from different threads.  Immutable after construction except
    for the caches, which are only ever filled with values that are
    bit-identical to recomputation (guarded by a lock for concurrent use).
    """

    def __init__(self, q="0.5", precision=50, invert=False):
        if precision < 30:
            raise QDomainError("precision must be at least 30 significant digits")
        self.precision = int(precision)
        self.dps = self.precision + GUARD_DIGITS
        self.mp = mpmath.MPContext()
        self.mp.dps = self.dps
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
        # (man, exp) pairs of [n]! and 1/[n]! by n, and of [x] and 1/[x]
        # by 2x ([0] = 0 has no inverse); see factorial_pairs, qnum_pairs
        self._factorials = ([], [])
        self._brackets = ([(0, 0)], [None])

    def work(self):
        """Set mpmath's global precision to this context's, for a caller's
        own code on module-level mpmath reals; qcgc itself never needs it."""
        return mpmath.mp.workdps(self.dps)

    def reciprocal(self):
        """A context with q -> 1/q at identical precision, kept for later."""
        return self._memo(("reciprocal",), lambda: QContext(
            q=self._q_arg, precision=self.precision, invert=not self._invert))

    def with_precision(self, precision):
        """The same deformation parameter at a different precision."""
        return QContext(q=self._q_arg, precision=precision,
                        invert=self._invert)

    def to_mpf(self, x):
        """HalfInt, Fraction, int, str, float or any mpmath real as a real
        of this context; a float goes through its decimal string."""
        mpf = self.mp.mpf
        if isinstance(x, HalfInt):
            return mpf(x.twice) / 2
        if isinstance(x, Fraction):
            return mpf(x.numerator) / x.denominator
        if isinstance(x, (int, str)) or hasattr(x, "_mpf_"):
            return mpf(x)
        return mpf(str(x))

    def to_pair(self, x):
        """x as a (man, exp) pair, man * 2^exp, with a ``width``-bit man."""
        sign, man, exp, bc = self.to_mpf(x)._mpf_
        shift = self.width - bc
        return (-man if sign else man) << shift, exp - shift

    def qpow(self, e):
        """q raised to an exact half-integer/rational exponent."""
        return self.q ** self.to_mpf(e)

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


def qnum(x, ctx):
    """Symmetric quantum number [x] = (q^x - q^-x)/(q - q^-1)."""
    if ctx.is_classical:
        return ctx.to_mpf(x)
    if isinstance(x, HalfInt):
        return ctx._memo(("num", x.twice), lambda: _qnum_raw(ctx.to_mpf(x), ctx))
    return _qnum_raw(ctx.to_mpf(x), ctx)


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
        value = ctx._memo(("fact", k), lambda: value * qnum(HalfInt(k), ctx))
    return value * qnum(HalfInt(n), ctx) if n else value


def _renormalise(man, exp, width):
    """man * 2^exp rounded down to a width-bit mantissa (man has more)."""
    shift = man.bit_length() - width
    return man >> shift, exp + shift


def factorial_pairs(n, ctx):
    """Lists of the pairs of [k]! and of 1/[k]!, by k = 0..n at least."""
    if n < 0:
        raise QDomainError(f"q_factorial: negative argument {n}")
    if len(ctx._factorials[1]) <= n:
        q_factorial(n, ctx)  # fills the memo below n in one upward pass
        _grow(ctx._factorials, n, lambda k: q_factorial(k, ctx), ctx)
    return ctx._factorials


def qnum_pairs(twice, ctx):
    """Lists of the pairs of [x] and of 1/[x], by 2x = 0..twice at least."""
    if len(ctx._brackets[1]) <= twice:
        _grow(ctx._brackets, twice, lambda t: qnum(HalfInt(twice=t), ctx), ctx)
    return ctx._brackets


def _signed_entry(table, twice):
    """The pair at 2x = twice from a qnum_pairs table: [-x] = -[x]."""
    if twice >= 0:
        return table[twice]
    man, exp = table[-twice]
    return -man, exp


def _inverse_pair(pair, width):
    """The width-bit pair of 1/x from the pair of x."""
    man, exp = pair
    return _renormalise((1 << 2 * width) // man, -2 * width - exp, width)


def _grow(tables, n, real, ctx):
    # the pairs come from the memoised reals, made outside the lock (the
    # memo takes it); every thread makes the same pairs, so under the lock
    # each list only takes the entries it still lacks
    values, inverses = tables
    start = len(inverses)
    new = [ctx.to_pair(real(k)) for k in range(start, n + 1)]
    new_inverses = [_inverse_pair(p, ctx.width) for p in new]
    with ctx._lock:
        have = len(inverses) - start
        values.extend(new[have:])
        inverses.extend(new_inverses[have:])


def q_pochhammer(a, n, ctx):
    """Symmetric q-Pochhammer (a|q)_n = [a][a+1]...[a+n-1]."""
    n = _as_index(n)
    if n < 0:
        raise QDomainError(f"q_pochhammer: negative length {n}")
    if isinstance(a, HalfInt):
        return ctx._memo(("poch", a.twice, n), lambda: _q_pochhammer_raw(a, n, ctx))
    return _q_pochhammer_raw(a, n, ctx)


def _q_pochhammer_raw(a, n, ctx):
    value = ctx.to_mpf(1)
    for m in range(n):
        value *= qnum(a + m if isinstance(a, HalfInt) else ctx.to_mpf(a) + m, ctx)
    return value


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
    k = 0
    while True:
        f_num = 1 - base ** (k + 1)
        f_den = 1 - base ** (sv + k)
        num *= f_num
        den *= f_den
        if abs(1 - f_num) < cutoff and abs(1 - f_den) < cutoff:
            break
        k += 1
    return (1 - base) ** (1 - sv) * num / den


def q_gamma_tilde(s, ctx):
    """Symmetric q-Gamma: Gamma_tilde(n+1) = [n]! for integer n >= 0."""
    sv = ctx.to_mpf(s)
    if sv <= 0 and sv == ctx.mp.floor(sv):
        raise QDomainError(f"q-Gamma pole at s={s}")
    if ctx.is_classical:
        return ctx.mp.gamma(sv)
    if sv == ctx.mp.floor(sv):
        # factorial shortcut for positive integer arguments
        return q_factorial(int(sv) - 1, ctx)
    base = ctx.q ** 2
    return base ** (-(sv - 1) * (sv - 2) / 4) * _gamma_base(sv, base, ctx)


def _as_index(n):
    if isinstance(n, HalfInt):
        return n.as_int()
    if isinstance(n, int):
        return n
    if isinstance(n, float) and n == int(n):
        return int(n)
    raise QDomainError(f"expected an integer index, got {n!r}")
