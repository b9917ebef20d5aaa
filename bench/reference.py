"""Independent reference values for q-deformed Clebsch-Gordan coefficients.

Nothing here imports qcgc.  Keys are plain tuples of doubled labels
``(tj1, tm1, tj2, tm2, tj, tm)`` so the benchmark can build its inputs
and references without touching the code under test.

At q = 1 the Racah sum is evaluated exactly in ``Fraction`` and only the
final square root is rounded.  At other q the same sum is evaluated in
plain mpmath at no less than twice the requested precision plus guard
digits, and re-run with the digits its own cancellation cost added on
top, so the reference is good to at least twice the requested precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath

GUARD = 10


def admissible(key):
    """True iff the doubled labels pass the coupling selection rules."""
    tj1, tm1, tj2, tm2, tj, tm = key
    return (min(tj1, tj2, tj) >= 0 and tm == tm1 + tm2
            and abs(tm1) <= tj1 and abs(tm2) <= tj2 and abs(tm) <= tj
            and abs(tj1 - tj2) <= tj <= tj1 + tj2
            and (tj1 + tj2 + tj) % 2 == 0
            and (tj1 - tm1) % 2 == 0 and (tj2 - tm2) % 2 == 0
            and (tj - tm) % 2 == 0)


def _racah_data(key):
    """Integer factorial arguments of the Racah single sum."""
    tj1, tm1, tj2, tm2, tj, tm = key
    # every quantity below is an integer for an admissible key
    a = (tj1 + tj2 - tj) // 2            # j1 + j2 - j
    b = (tj1 - tj2 + tj) // 2            # j + j1 - j2
    c = (tj2 - tj1 + tj) // 2            # j + j2 - j1
    top = (tj1 + tj2 + tj) // 2 + 1      # j1 + j2 + j + 1
    p1, n1 = (tj1 + tm1) // 2, (tj1 - tm1) // 2
    p2, n2 = (tj2 + tm2) // 2, (tj2 - tm2) // 2
    p, n = (tj + tm) // 2, (tj - tm) // 2
    pre_num = (p1, n1, p2, n2, p, n, a, b, c)
    # the summand's denominator is [r]! [a-r]! [p2-r]! [n1-r]! [s1+r]! [s2+r]!
    s1 = (tj - tj2 + tm1) // 2           # j - j2 + m1
    s2 = (tj - tj1 - tm2) // 2           # j - j1 - m2
    rmin = max(0, -s1, -s2)
    rmax = min(a, p2, n1)
    return pre_num, top, a, p2, n1, s1, s2, rmin, rmax


def _exact_classical(key):
    """(sign, C^2) at q = 1 as exact rationals."""
    pre_num, top, a, p2, n1, s1, s2, rmin, rmax = _racah_data(key)
    tj = key[4]
    total = Fraction(0)
    for r in range(rmin, rmax + 1):
        den = (factorial(r) * factorial(a - r) * factorial(p2 - r)
               * factorial(n1 - r) * factorial(s1 + r) * factorial(s2 + r))
        total += Fraction((-1) ** r, den)
    pre = Fraction(1)
    for x in pre_num:
        pre *= factorial(x)
    pre /= factorial(top)
    square = (tj + 1) * pre * total * total
    sign = (total > 0) - (total < 0)
    return sign, square


class QTables:
    """Powers of q^(1/2) and symmetric q-factorials at one working precision."""

    def __init__(self, q, dps):
        with mpmath.workdps(dps):
            self.q = mpmath.mpf(q)
            self.half = mpmath.sqrt(self.q)
            self.qq = self.q - 1 / self.q
        self._fact = [mpmath.mpf(1)]

    def qpow_half(self, k):
        """q^(k/2) for an integer k."""
        return self.half ** k

    def bracket(self, n):
        return (self.q ** n - self.q ** -n) / self.qq

    def fact(self, n):
        while len(self._fact) <= n:
            m = len(self._fact)
            self._fact.append(self._fact[-1] * self.bracket(m))
        return self._fact[n]


def _q_value(key, tables):
    """Racah sum at the tables' precision; returns (value, digits lost)."""
    pre_num, top, a, p2, n1, s1, s2, rmin, rmax = _racah_data(key)
    tj1, tm1, tj2, tm2, tj, tm = key
    t = tables
    total = mpmath.mpf(0)
    peak = mpmath.mpf(0)
    for r in range(rmin, rmax + 1):
        term = (t.qpow_half(-2 * top * r)
                / (t.fact(r) * t.fact(a - r) * t.fact(p2 - r) * t.fact(n1 - r)
                   * t.fact(s1 + r) * t.fact(s2 + r)))
        if r % 2:
            term = -term
        total += term
        peak = max(peak, abs(term))
    pre = mpmath.mpf(1)
    for x in pre_num:
        pre *= t.fact(x)
    pre /= t.fact(top)
    # q-exponent j1 m2 - j2 m1 + (j1+j2-j)(j1+j2+j+1)/2, in quarters
    quarter = tj1 * tm2 - tj2 * tm1 + 2 * a * top
    # quarter is even for admissible keys, so q^(quarter/4) = half^(quarter/2)
    value = (t.qpow_half(quarter // 2) * mpmath.sqrt(t.bracket(tj + 1) * pre)
             * total)
    if total == 0:
        return value, None
    lost = max(0, int(mpmath.ceil(mpmath.log10(peak / abs(total)))))
    return value, lost


def reference_value(key, q, precision, tables=None):
    """Reference coefficient for doubled-label ``key`` at decimal-string q.

    Returned as an mpf carrying ``2 * precision + GUARD`` digits; the
    caller reads it under at least that working precision.  Structural
    zeros (selection-rule failures) are exactly 0.  ``tables`` may carry
    a cache of :class:`QTables` keyed by (q, dps) shared across calls.
    """
    dps = 2 * precision + GUARD
    if not admissible(key):
        return mpmath.mpf(0)
    if mpmath.mpf(q) == 1:
        sign, square = _exact_classical(key)
        with mpmath.workdps(dps):
            if sign == 0:
                return mpmath.mpf(0)
            return sign * mpmath.sqrt(mpmath.mpf(square.numerator)
                                      / square.denominator)
    if tables is None:
        tables = {}
    work = dps
    for _ in range(8):
        t = tables.get((q, work))
        if t is None:
            t = tables[(q, work)] = QTables(q, work)
        with mpmath.workdps(work):
            value, lost = _q_value(key, t)
        if lost is None:
            # an exactly cancelling sum: retry wider before trusting zero
            work *= 2
            continue
        if work >= dps + lost:
            return value
        work = dps + lost + GUARD
    with mpmath.workdps(dps):
        return value


def correct_digits(value, ref, cap):
    """Correct significant digits of ``value`` against ``ref``, at most ``cap``.

    Relative to ``|ref|``; when the reference is exactly zero the error is
    taken relative to 1, the scale of a normalised coupling coefficient.
    """
    err = abs(value - ref)
    if err == 0:
        return float(cap)
    scale = abs(ref) if ref != 0 else 1
    return min(float(cap), float(-mpmath.log10(err / scale)))


def within_precision(value, ref, precision):
    """True iff ``value`` matches ``ref`` to within one unit of its
    ``precision``-th significant digit.

    A zero reference (a coefficient that vanishes without failing the
    selection rules) is matched to ``precision`` decimals instead.
    """
    if ref == 0:
        return abs(value) <= mpmath.mpf(10) ** -precision
    err = abs(value - ref)
    exponent = int(mpmath.floor(mpmath.log10(abs(ref))))
    return err <= mpmath.mpf(10) ** (exponent - precision + 1)
