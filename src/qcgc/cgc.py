"""Clebsch-Gordan coefficients of the q-deformed angular momentum algebra.

Eight closed forms (double-checked against each other and against the
matrix-level oracle in :mod:`qcgc.repsu`), ten special-value fast paths
and the symmetry relations are all stored as data rows read by one
evaluator; two three-term recurrences complete the module.

Conventions: the stretched coefficient <j1 j1, j2 j2|j1+j2 j1+j2> is 1,
all coefficients are real, and structural zeros (selection-rule
failures) are returned as exact 0 without touching any arithmetic.
"""

from __future__ import annotations

import ast
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .halfint import HalfInt, halfint, halfint_range
from .qcore import (QDomainError, _renormalise, _signed_entry, factorial_pairs,
                    qnum, qnum_pairs)
from .qhyper import HyperSeriesSpec, _sum_with_guard, eval_terminating


@dataclass(frozen=True)
class CgcKey:
    """The sextuple (j1, m1, j2, m2, j, m) addressing one coefficient."""

    j1: HalfInt
    m1: HalfInt
    j2: HalfInt
    m2: HalfInt
    j: HalfInt
    m: HalfInt

    def __post_init__(self):
        for name in ("j1", "m1", "j2", "m2", "j", "m"):
            object.__setattr__(self, name, halfint(getattr(self, name)))

    def labels(self):
        return (self.j1, self.m1, self.j2, self.m2, self.j, self.m)

    def __str__(self):
        j1, m1, j2, m2, j, m = self.labels()
        return f"<{j1} {m1}, {j2} {m2}|{j} {m}>"


def selection_failure(key):
    """Reason the key fails the selection rules, or None if it passes."""
    j1, m1, j2, m2, j, m = key.labels()
    if j1 < 0 or j2 < 0 or j < 0:
        return "selection: negative spin"
    if m != m1 + m2:
        return "selection: m != m1+m2"
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return "selection: |m| > j"
    if j < abs(j1 - j2) or j > j1 + j2:
        return "selection: triangle rule"
    if not (j1 + j2 + j).is_integer:
        return "selection: j1+j2+j not integral"
    if not ((j1 - m1).is_integer and (j2 - m2).is_integer and (j - m).is_integer):
        return "selection: j-m not integral"
    return None


def selection_rules(key):
    """True iff the key addresses an admissible coefficient."""
    return selection_failure(key) is None


def admissible_keys(j1, j2, j_cap=None):
    """All admissible keys for fixed (j1, j2), in deterministic order."""
    j1, j2 = halfint(j1), halfint(j2)
    keys = []
    for j in halfint_range(abs(j1 - j2), j1 + j2):
        if j_cap is not None and j > j_cap:
            break
        for m in halfint_range(-j, j):
            for m1 in halfint_range(-j1, j1):
                m2 = m - m1
                if abs(m2) <= j2:
                    keys.append(CgcKey(j1, m1, j2, m2, j, m))
    return keys


def _fr(x):
    return halfint(x).as_fraction()


# ---------------------------------------------------------------------------
# forms in the labels
# ---------------------------------------------------------------------------

_VARIABLES = ("j1", "m1", "j2", "m2", "j", "m", "r")


def _twice(key):
    return tuple(x.twice for x in key.labels())


def _poly(node):
    """{monomial: coefficient} of an expression; a monomial is a sorted
    tuple of variable indices (the labels, then r)."""
    if isinstance(node, ast.Constant):
        return {(): node.value}
    if isinstance(node, ast.Name):
        return {(_VARIABLES.index(node.id),): 1}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return {mono: -c for mono, c in _poly(node.operand).items()}
    if isinstance(node, ast.BinOp):
        left, right = _poly(node.left), _poly(node.right)
        out = {}
        if isinstance(node.op, (ast.Add, ast.Sub)):
            sign = 1 if isinstance(node.op, ast.Add) else -1
            out.update(left)
            for mono, c in right.items():
                out[mono] = out.get(mono, 0) + sign * c
            return out
        if isinstance(node.op, ast.Mult):
            for ma, ca in left.items():
                for mb, cb in right.items():
                    mono = tuple(sorted(ma + mb))
                    out[mono] = out.get(mono, 0) + ca * cb
            return out
        if isinstance(node.op, ast.Div) and set(right) == {()}:
            return {mono: Fraction(c, right[()]) for mono, c in left.items()}
    raise ValueError(f"unsupported form {ast.unparse(node)!r}")


class _Form:
    """A polynomial of degree <= 2 in the six labels, plus a multiple of r.

    Parsed once from text such as ``"j1*m2 - (j1+j2-j)*(j1+j2+j+1)/2"``,
    where a digit before a letter multiplies (``"2j+1"``).  It is read on
    the doubled labels (``HalfInt.twice``), with integer arithmetic only;
    the coefficient of r is kept apart in ``r``.
    """

    __slots__ = ("text", "terms", "den", "r")

    def __init__(self, text):
        expr = re.sub(r"(\d)([a-z(])", r"\1*\2", text)
        poly = _poly(ast.parse(expr, mode="eval").body)
        self.text = text
        self.r = int(poly.pop((_VARIABLES.index("r"),), 0))
        # a label enters as twice/2, so over the common denominator 4 * lcm
        # a monomial of degree d carries 2^(2-d)
        lcm = math.lcm(*(Fraction(c).denominator for c in poly.values()))
        terms = {mono: int(c * lcm) << (2 - len(mono))
                 for mono, c in poly.items() if c}
        g = math.gcd(4 * lcm, *terms.values())
        self.den = 4 * lcm // g
        self.terms = tuple((n // g, mono) for mono, n in terms.items())

    def _numerator(self, t):
        total = 0
        for n, mono in self.terms:
            for i in mono:
                n *= t[i]
            total += n
        return total

    def value(self, t):
        """The exact value at the doubled labels t (at r = 0)."""
        return Fraction(self._numerator(t), self.den)

    def integer(self, t):
        n, rest = divmod(self._numerator(t), self.den)
        if rest:
            raise QDomainError(f"{self.text} is not an integer here")
        return n


_form = functools.cache(_Form)


def _factors(text):
    """Numerator and denominator lists of (form, is_factorial) pairs.

    The text is a ratio of brackets [x] and q-factorials [x]! such as
    ``"[2j+1] [j+m]! / [j-m]!"``, every argument a form in the labels.
    """
    num, _, den = text.partition("/")
    return tuple(tuple((_form(arg), bang == "!") for arg, bang
                       in re.findall(r"\[([^\]]*)\](!?)", side))
                 for side in (num, den))


def _product(factors, t, ctx):
    """The product of the factors at the doubled labels t, as a pair."""
    man, exp = 1, 0
    for form, factorial in factors:
        n = form.integer(t)
        if factorial:
            m, e = factorial_pairs(n, ctx)[0][n]
        else:
            m, e = _signed_entry(qnum_pairs(abs(2 * n), ctx)[0], 2 * n)
        man *= m
        exp += e
    return man, exp


# ---------------------------------------------------------------------------
# closed forms and special values, stored as data
# ---------------------------------------------------------------------------

class FactorialSum:
    """sum_r (-1)^r q^(power*r) prod [a_i + s_i r]!^(+-1), s_i = +-1.

    r runs over the integers at which every denominator argument is >= 0,
    which is the continuation 1/[negative]! := 0; a q-binomial and a
    Pochhammer (-n|q)_k = (-1)^k [n]!/[n-k]! both fit this shape.
    """

    def __init__(self, power, factors):
        self.power = _form(power)
        self.num, self.den = _factors(factors)

    def value(self, t, outside, ctx):
        """The outside factors times the sum at the doubled labels t.

        The outside factors scale every summand, so that the guard
        measures the cancellation against summands of their true size.
        """
        e = self.power.integer(t)
        num = [(form.integer(t), form.r) for form, _ in self.num]
        den = [(form.integer(t), form.r) for form, _ in self.den]
        lo = max(-a for a, s in den if s > 0)
        hi = min(a for a, s in den if s < 0)
        ends = [a + s * r for a, s in num + den for r in (lo, hi)]
        if lo <= hi and min(ends) < 0:
            raise QDomainError(f"q_factorial: negative argument {min(ends)}")

        def terms(c):
            width = c.width
            fact, inverse = factorial_pairs(max(ends), c)
            factors = ([(fact, a, s) for a, s in num]
                       + [(inverse, a, s) for a, s in den])
            step_man, step_exp = c.to_pair(c.q ** e)
            man, exp = c.to_pair(c.mp.mpf(_product(outside, t, c)) * c.q ** (e * lo))
            for r in range(lo, hi + 1):
                m, x = man, exp
                for table, a, s in factors:  # _renormalise, inlined in the hot loop
                    f, y = table[a + s * r]
                    m *= f
                    shift = m.bit_length() - width
                    m >>= shift
                    x += y + shift
                yield (m if r % 2 == 0 else -m), x
                man, exp = _renormalise(man * step_man, exp + step_exp, width)

        return _sum_with_guard(terms, ctx)


class HyperSeries:
    """A terminating 3F2 at argument q^arg_exponent, parameters as forms."""

    def __init__(self, numerator, denominator, arg_exponent):
        self.numerator = tuple(_form(f) for f in numerator)
        self.denominator = tuple(_form(f) for f in denominator)
        self.arg_exponent = _form(arg_exponent)

    def value(self, t, outside, ctx):
        """The outside factors times the series at the doubled labels t."""
        spec = HyperSeriesSpec(
            numerator=tuple(f.value(t) for f in self.numerator),
            denominator=tuple(f.value(t) for f in self.denominator),
            arg_exponent=self.arg_exponent.value(t))
        return ctx.mp.mpf(_product(outside, t, ctx)) * eval_terminating(spec, ctx)


class ClosedForm:
    """One closed form or special value as a row of label forms.

    The value is (-1)^phase q^power sqrt(root) times the optional
    factor(key, ctx) and the series (a FactorialSum or a HyperSeries,
    which also takes the outside factors).  Special values carry in
    ``match`` the forms that vanish on their pattern; ``classical(key,
    ctx)`` replaces the whole row at q = 1 when given.
    """

    def __init__(self, power, root, phase="0", outside="", series=None,
                 match=(), factor=None, classical=None):
        self.power = _form(power)
        self.root = _factors(root)
        self.phase = _form(phase)
        self.outside = _factors(outside)[0]
        self.series = series
        self.match = tuple(_form(f) for f in match)
        self.factor = factor
        self.classical = classical

    def value(self, key, ctx):
        if self.classical is not None and ctx.is_classical:
            return self.classical(key, ctx)
        t = _twice(key)
        num, den = self.root
        value = ctx.qpow(self.power.value(t)) * ctx.mp.sqrt(
            ctx.mp.mpf(_product(num, t, ctx)) / ctx.mp.mpf(_product(den, t, ctx)))
        if self.phase.integer(t) % 2:
            value = -value
        if self.factor is not None:
            value *= self.factor(key, ctx)
        if self.series is not None:
            value *= self.series.value(t, self.outside, ctx)
        return value


_QUADRATIC_MINUS = "j1*m2 - j2*m1 - (j1+j2-j)*(j1+j2+j+1)/2"
_QUADRATIC_PLUS = "j1*m2 - j2*m1 + (j1+j2-j)*(j1+j2+j+1)/2"
_RACAH_TERMS = ("/ [r]! [j1+j2-j-r]! [j2+m2-r]! [j1-m1-r]! [j-j2+m1+r]! "
                "[j-j1-m2+r]!")

CLOSED_FORMS = {
    # finite sum, index running down from the stretched end
    "sum": ClosedForm(
        phase="j1+j2-j", power=_QUADRATIC_MINUS,
        root=("[2j+1] [j1+j2+j+1]! [j+j1-j2]! [j1+j2-j]! [j+m]! [j2-m2]! "
              "/ [j+j2-j1]! [j-m]! [j1+m1]! [j1-m1]! [j2+m2]!"),
        series=FactorialSum(
            "j1+m1", ("[j1+j2-m-r]! [2j2-r]! / [r]! [j+j1+j2+1-r]! "
                      "[j2-m2-r]! [j1+j2-j-r]!"))),
    # pre-substitution form of the same sum
    "sum_alt": ClosedForm(
        power="m*j1 - m1*j - (j2+j-j1+1)*(j1+j2-j)/2",
        root=("[2j+1] [j1+j2+j+1]! [j+j1-j2]! [j1+j2-j]! [j+m]! [j2-m2]! "
              "/ [j+j2-j1]! [j-m]! [j1+m1]! [j1-m1]! [j2+m2]!"),
        series=FactorialSum(
            "-(j1+m1)", ("[j-m+r]! [j+j2-j1+r]! / [r]! [2j+1+r]! "
                         "[j-j1-m2+r]! [j1+j2-j-r]!"))),
    # the hypergeometric representation: prefactor times a terminating 3F2
    "3f2": ClosedForm(
        phase="j1+j2-j", power=_QUADRATIC_MINUS,
        root=("[2j+1] [j+m]! [j+j1-j2]! / [j1+j2+j+1]! [j+j2-j1]! "
              "[j1+j2-j]! [j1+m1]! [j1-m1]! [j2+m2]! [j2-m2]! [j-m]!"),
        outside="[2j2]! [j1+j2-m]!",
        series=HyperSeries(("j-j1-j2", "m2-j2", "-j-j1-j2-1"),
                           ("m-j1-j2", "-2j2"), "j1+m1")),
    # first rewritten 3F2 (argument q^(j1+j2+j+1)); its nonpositive integer
    # numerator parameters become factorials, and the merged denominators
    # keep the boundary keys finite, where the printed split into
    # prefactor and series has a factorial of a negative argument
    "3f2_rw1": ClosedForm(
        phase="j1+j2-j", power=_QUADRATIC_MINUS,
        root=("[2j+1] [j1-m1]! [j2+m2]! [j-m]! [j+m]! [j+j1-j2]! [j+j2-j1]! "
              "/ [j1+m1]! [j2-m2]! [j1+j2+j+1]! [j1+j2-j]!"),
        outside="[j1+j2-j]! [j2-m2]! [j1+m1]!",
        series=FactorialSum(
            "j1+j2+j+1", ("/ [r]! [j1+j2-j-r]! [j2-m2-r]! [j1+m1-r]! "
                          "[j-j2-m1+r]! [j-j1+m2+r]!"))),
    # second rewritten 3F2 (argument q^-(j1+j2+j+1))
    "3f2_rw2": ClosedForm(
        power=_QUADRATIC_PLUS,
        root=("[2j+1] [j1+m1]! [j2-m2]! [j-m]! [j+m]! [j+j1-j2]! [j+j2-j1]! "
              "/ [j1-m1]! [j2+m2]! [j1+j2+j+1]! [j1+j2-j]!"),
        outside="[j1+j2-j]! [j1-m1]! [j2+m2]!",
        series=FactorialSum("-(j1+j2+j+1)", _RACAH_TERMS)),
    # alternative 3F2 representation through the j <-> j2 exchange
    "3f2_long_equiv": ClosedForm(
        phase="j1-m1",
        power="j1*m + j*m1 + m1 - (j1+j-j2)*(j1+j2+j+1)/2",
        root=("[2j+1] [j2+m2]! [j1+j2-j]! / [j1+j2+j+1]! [j+j2-j1]! "
              "[j1+j-j2]! [j1+m1]! [j1-m1]! [j+m]! [j2-m2]! [j-m]!"),
        outside="[2j]! [j1+j-m2]!",
        series=HyperSeries(("j2-j1-j", "m-j", "-j-j1-j2-1"),
                           ("m2-j1-j", "-2j"), "j1-m1")),
    # Racah-type single sum, symmetric in all factorial arguments: the
    # default production formula; the sign of the quadratic exponent is
    # fixed by matching the other closed forms and the matrix oracles
    "racah": ClosedForm(
        power=_QUADRATIC_PLUS,
        root=("[2j+1] [j1+m1]! [j1-m1]! [j2+m2]! [j2-m2]! [j+m]! [j-m]! "
              "[j1+j2-j]! [j+j1-j2]! [j+j2-j1]! / [j1+j2+j+1]!"),
        series=FactorialSum("-(j1+j2+j+1)", _RACAH_TERMS)),
    # the Racah sum through q-binomials, written out as factorials
    "racah_binomial": ClosedForm(
        power=_QUADRATIC_PLUS,
        root=("[2j+1]! [j1+m1]! [j1-m1]! [j2+m2]! [j2-m2]! [j+m]! [j-m]! "
              "/ [2j]! [j1+j2-j]! [j+j1-j2]! [j+j2-j1]! [j1+j2+j+1]!"),
        outside="[j1+j2-j]! [j+j1-j2]! [j+j2-j1]!",
        series=FactorialSum("-(j1+j2+j+1)", _RACAH_TERMS)),
}


def _closed_form(name):
    row = CLOSED_FORMS[name]

    def evaluate(key, ctx):
        if not selection_rules(key):
            return ctx.to_mpf(0)
        return row.value(key, ctx)

    evaluate.__name__ = evaluate.__qualname__ = f"cgc_{name}"
    evaluate.__doc__ = f"The coefficient through the {name!r} closed form."
    return evaluate


cgc_sum = _closed_form("sum")
cgc_sum_alt = _closed_form("sum_alt")
cgc_3f2 = _closed_form("3f2")
cgc_3f2_rw1 = _closed_form("3f2_rw1")
cgc_3f2_rw2 = _closed_form("3f2_rw2")
cgc_3f2_long_equiv = _closed_form("3f2_long_equiv")
cgc_racah = _closed_form("racah")
cgc_racah_binomial = _closed_form("racah_binomial")


# ---------------------------------------------------------------------------
# symmetry relations, stored as data
# ---------------------------------------------------------------------------

class SymmetryRelation:
    """A linear label substitution with its prefactor descriptor.

    The descriptor equation is
    CGC_q(key) = (-1)^phase * q^power * sqrt([2a+1]/[2b+1]) * CGC_q'(key')
    with q' = 1/q iff q_flip; the six mapped labels (key_map), phase,
    power and the norm-ratio labels a, b are linear forms in the six
    original labels.
    """

    def __init__(self, name, key_map, q_flip, phase_form="0", power_form="0",
                 norm_num=None, norm_den=None):
        self.name = name
        self.key_map = tuple(_form(f) for f in key_map)
        self.q_flip = q_flip
        self.phase_form = _form(phase_form)
        self.power_form = _form(power_form)
        self.norm = None if norm_num is None else (_form(norm_num),
                                                   _form(norm_den))


SYMMETRIES = {
    "swap12": SymmetryRelation(
        name="swap12", key_map=("j2", "m2", "j1", "m1", "j", "m"),
        q_flip=True, phase_form="j1+j2-j"),
    "negate_m": SymmetryRelation(
        name="negate_m", key_map=("j2", "-m2", "j1", "-m1", "j", "-m"),
        q_flip=False),
    "j_j1": SymmetryRelation(
        name="j_j1", key_map=("j", "-m", "j2", "m2", "j1", "-m1"),
        q_flip=True, phase_form="j2+m2", power_form="-m2",
        norm_num="j", norm_den="j1"),
    "j_j1_composed": SymmetryRelation(
        name="j_j1_composed", key_map=("j2", "-m2", "j", "m", "j1", "m1"),
        q_flip=True, phase_form="j2+m2", power_form="-m2",
        norm_num="j", norm_den="j1"),
    "j_j2": SymmetryRelation(
        name="j_j2", key_map=("j", "m", "j1", "-m1", "j2", "m2"),
        q_flip=True, phase_form="j1-m1", power_form="m1",
        norm_num="j", norm_den="j2"),
    "rose_jj2": SymmetryRelation(
        name="rose_jj2", key_map=("j1", "m1", "j", "-m", "j2", "-m2"),
        q_flip=True, phase_form="j1-m1", power_form="m1",
        norm_num="j", norm_den="j2"),
    "regge": SymmetryRelation(
        name="regge",
        key_map=("(j1+j2+m1+m2)/2", "(j1-j2+m1-m2)/2", "(j1+j2-m1-m2)/2",
                 "(j1-j2-m1+m2)/2", "j", "j1-j2"),
        q_flip=False),
}


@dataclass(frozen=True)
class SymmetryDescriptor:
    """Concrete instance of a relation applied to one key."""

    key: CgcKey
    q_flip: bool
    phase: int
    q_power: Fraction
    norm_pair: tuple  # (a, b) for sqrt([2a+1]/[2b+1]) or None

    def prefactor(self, ctx):
        v = (-1) ** self.phase * ctx.qpow(self.q_power)
        if self.norm_pair is not None:
            a, b = self.norm_pair
            v *= ctx.mp.sqrt(qnum(2 * a + 1, ctx) / qnum(2 * b + 1, ctx))
        return v


def apply_symmetry(key, relation):
    """Descriptor such that CGC_q(key) = prefactor * CGC_q'(mapped key)."""
    if isinstance(relation, str):
        relation = SYMMETRIES[relation]
    t = _twice(key)
    new_key = CgcKey(*(HalfInt(f.value(t)) for f in relation.key_map))
    phase = relation.phase_form.value(t)
    if phase.denominator != 1:
        raise QDomainError(f"non-integer phase for {relation.name} on {key}")
    norm_pair = None
    if relation.norm is not None:
        norm_pair = tuple(HalfInt(f.value(t)) for f in relation.norm)
    return SymmetryDescriptor(
        key=new_key,
        q_flip=relation.q_flip,
        phase=int(phase) % 2,
        q_power=relation.power_form.value(t),
        norm_pair=norm_pair,
    )


# ---------------------------------------------------------------------------
# special values
# ---------------------------------------------------------------------------

def _stretched_minus_one_bracket(key, ctx):
    # rederived from the two-term 3F2; the first factor reads [2j1+2j2],
    # not the difference of the spins
    j1, m1, j2, m2, j, m = key.labels()
    return _sum_with_guard(lambda c: (
        qnum(2 * j1 + 2 * j2, c) * qnum(j2 - m2, c) * c.qpow(_fr(j1 + m1)),
        -qnum(2 * j2, c) * qnum(j1 + j2 - m, c)), ctx)


# in priority order: the first row whose pattern matches is used
SPECIAL_VALUES = {
    "j0": ClosedForm(
        match=("j",), phase="j1-m1", power="m1", root="/ [2j1+1]"),
    "stretched": ClosedForm(
        match=("j1+j2-j",), power="j1*m2 - j2*m1",
        root=("[2j1]! [2j2]! [j1+j2+m]! [j1+j2-m]! / [2j1+2j2]! [j1+m1]! "
              "[j1-m1]! [j2+m2]! [j2-m2]!")),
    "stretched_minus_one": ClosedForm(
        match=("j1+j2-j-1",), power="j1*m2 - j2*m1 - j1 - j2",
        root=("[2j1+2j2-1] [2j1-1]! [2j2-1]! [j1+j2+m-1]! [j1+j2-m-1]! "
              "/ [2j1+2j2]! [j1+m1]! [j1-m1]! [j2+m2]! [j2-m2]!"),
        factor=_stretched_minus_one_bracket),
    # j = j1 - j2 implies j1 >= j2 on an admissible key
    "antistretched": ClosedForm(
        match=("j1-j2-j",), phase="j2+m2", power="-j1*m2 - j2*m1 - m2",
        root=("[2j1-2j2+1]! [2j2]! [j1+m1]! [j1-m1]! / [2j1+1]! "
              "[j1-j2-m]! [j1-j2+m]! [j2+m2]! [j2-m2]!")),
    "m_eq_j": ClosedForm(
        match=("j-m",), phase="j1-m1",
        power="(j1+j2-j)*(j+j2-j1+1)/2 - (j+1)*(j1-m1)",
        root=("[2j+1]! [j1+m1]! [j2+m2]! [j1+j2-j]! / [j1-j2+j]! "
              "[j2-j1+j]! [j1+j2+j+1]! [j1-m1]! [j2-m2]!")),
    "m2_eq_j2": ClosedForm(
        match=("j2-m2",), phase="j1+j2-j",
        power="j2*(j1-m1) - (j1+j2-j)*(j1+j2+j+1)/2",
        root=("[2j+1] [j+j1-j2]! [j+m]! [j1-m1]! [2j2]! / [j1+j2+j+1]! "
              "[j1+j2-j]! [j+j2-j1]! [j-m]! [j1+m1]!")),
    "m1_eq_j1": ClosedForm(
        match=("j1-m1",),
        power="-j1*(j2-m2) + (j1+j2-j)*(j1+j2+j+1)/2",
        root=("[2j+1] [j+j2-j1]! [j+m]! [j2-m2]! [2j1]! / [j1+j2+j+1]! "
              "[j1+j2-j]! [j+j1-j2]! [j-m]! [j2+m2]!")),
    # the quadratic exponent enters with the minus sign here (the
    # plus-sign variant fails against the 3F2 form and the oracles)
    "m1_eq_minus_j1": ClosedForm(
        match=("j1+m1",), phase="j1+j2-j",
        power="j1*(j2+m2) - (j1+j2-j)*(j1+j2+j+1)/2",
        root=("[2j+1] [2j1]! [j2+m2]! [j-m]! [j+j2-j1]! / [j1+j2+j+1]! "
              "[j+j1-j2]! [j1+j2-j]! [j+m]! [j2-m2]!")),
    # the quadratic exponent enters with the plus sign here (mirror of
    # the m1 = -j1 case)
    "m2_eq_minus_j2": ClosedForm(
        match=("j2+m2",),
        power="-j2*(j1+m1) + (j1+j2-j)*(j1+j2+j+1)/2",
        root=("[2j+1] [2j2]! [j1+m1]! [j-m]! [j+j1-j2]! / [j1+j2+j+1]! "
              "[j+j2-j1]! [j1+j2-j]! [j+m]! [j1-m1]!")),
    # [j]!/([j-j2]![j-j1]!) 3F2(j-j1-j2, -j1, -j2; j-j1+1, j-j2+1 | ..)
    # with merged denominators, finite when j < max(j1, j2)
    "all_m_zero": ClosedForm(
        match=("m1", "m2"), phase="j1+j2-j",
        power="-(j1+j2-j)*(j1+j2+j+1)/2",
        root=("[2j+1] [j+j1-j2]! [j+j2-j1]! / [j1+j2+j+1]! [j1+j2-j]!"),
        outside="[j]! [j1+j2-j]! [j1]! [j2]!",
        series=FactorialSum(
            "j1+j2+j+1", ("/ [r]! [j1+j2-j-r]! [j1-r]! [j2-r]! [j-j1+r]! "
                          "[j-j2+r]!")),
        classical=lambda key, ctx: classical_parity_zero_value(
            key.j1, key.j2, key.j, ctx)),
}


def special_value(key, ctx):
    """Closed-form fast path when the key matches a special pattern.

    Returns None when no pattern applies; the patterns are tried in the
    order of SPECIAL_VALUES.
    """
    if not selection_rules(key):
        return None
    t = _twice(key)
    for row in SPECIAL_VALUES.values():
        if all(form.value(t) == 0 for form in row.match):
            return row.value(key, ctx)
    return None


def classical_parity_zero_value(j1, j2, j, ctx):
    """Classical (q=1) value of <j1 0, j2 0|j 0> from the Dixon summation."""
    j1, j2, j = halfint(j1).as_int(), halfint(j2).as_int(), halfint(j).as_int()
    total = j1 + j2 + j
    if total % 2 == 1:
        return ctx.to_mpf(0)
    k = total // 2
    fact = ctx.mp.factorial
    head = ((-1) ** (k - j) * fact(k)
            / (fact(k - j1) * fact(k - j2) * fact(k - j)))
    rad = ((2 * j + 1) * fact(2 * k - 2 * j1) * fact(2 * k - 2 * j2)
           * fact(2 * k - 2 * j) / fact(2 * k + 1))
    return head * ctx.mp.sqrt(rad)


# ---------------------------------------------------------------------------
# recurrence relations
# ---------------------------------------------------------------------------

def _relative_residual(terms, values):
    """|sum(terms)| over the largest term or value, 0 when all vanish."""
    scale = max(abs(x) for x in (*terms, *values))
    return abs(sum(terms)) / scale if scale else scale


def recurrence_j_residual(key, ctx, evaluator=cgc_racah):
    """Residual of the three-term recurrence in j at fixed magnetic labels.

    The relation is the three-term recurrence of the underlying discrete
    orthogonal polynomial family transported through the normalized
    connection: a coupling coefficient is a fixed sign times
    sqrt(rho(s) delta-x / d_n^2) times a polynomial of degree n = j - m
    at the lattice point s = j2 - m2, and everything except the norm is
    independent of j.  Dividing the polynomial recurrence by sqrt(d_n^2)
    gives

        x(s) C(j) = A_up(j) C(j+1) + B(j) C(j) + A_dn(j) C(j-1)

    with A_up(j) = alpha_n sqrt(d_{n+1}^2/d_n^2) and
    A_dn(j) = gamma_n sqrt(d_{n-1}^2/d_n^2), written below directly in
    the coupling labels.  A published coefficient table for this
    relation could not be reconciled with the values (only its
    m1-dependent part checks out), so the coefficients here come from
    the polynomial route, which is anchored to the norms and the
    brute-force Gram matrix.
    """
    j1, m1, j2, m2, j, m = key.labels()
    if j == 0:
        raise QDomainError("three-term recurrence in j is singular at j=0")
    key_dn = CgcKey(j1, m1, j2, m2, j - 1, m)
    key_up = CgcKey(j1, m1, j2, m2, j + 1, m)
    half = Fraction(1, 2)
    # lattice value x(s) at s = j2 - m2
    x_val = ctx.qpow(_fr(j2 - m2 - 1)) * qnum(j2 - m2, ctx)
    # norm ratio d_n^2 / d_{n-1}^2 expressed at level j (n = j - m)
    def _norm_ratio(jj):
        return (ctx.qpow(-_fr(jj - m))
                * qnum(jj - j1 + j2, ctx) * qnum(jj + j1 - j2, ctx)
                * qnum(jj + j1 + j2 + 1, ctx) * qnum(j1 + j2 - jj + 1, ctx)
                * qnum(2 * jj - 1, ctx)
                / (qnum(jj - m, ctx) * qnum(jj + m, ctx)
                   * qnum(2 * jj + 1, ctx)))
    b_coef = ctx.to_mpf(0)
    if selection_rules(key_up):
        alpha_n = (ctx.qpow(half * _fr(4 * j2 + j - 3 * m - 1))
                   * qnum(j - m + 1, ctx) * qnum(j + m + 1, ctx)
                   / (qnum(2 * j + 2, ctx) * qnum(2 * j + 1, ctx)))
        b_coef = alpha_n * ctx.mp.sqrt(_norm_ratio(j + 1))
    a_coef = ctx.to_mpf(0)
    if j > m and selection_rules(key_dn):
        gamma_n = (ctx.qpow(half * _fr(4 * j2 - j - m - 2))
                   * qnum(j - j1 + j2, ctx) * qnum(j + j1 - j2, ctx)
                   * qnum(j + j1 + j2 + 1, ctx) * qnum(j1 + j2 - j + 1, ctx)
                   / (qnum(2 * j, ctx) * qnum(2 * j + 1, ctx)))
        a_coef = gamma_n / ctx.mp.sqrt(_norm_ratio(j))
    d_coef = (-ctx.qpow(-_fr(j + j1 - j2 + 2)) * qnum(j + j1 - j2 + 1, ctx)
              + ctx.qpow(_fr(2 * j2 - j - m - 2))
              * qnum(j - m + 1, ctx) * qnum(j + j1 - j2 + 1, ctx)
              * qnum(j + j1 + j2 + 2, ctx) / qnum(2 * j + 2, ctx))
    if j > m:
        d_coef -= (ctx.qpow(_fr(2 * j2 - j - m - 1))
                   * qnum(j - m, ctx) * qnum(j + j1 - j2, ctx)
                   * qnum(j + j1 + j2 + 1, ctx) / qnum(2 * j, ctx))
    c_dn = evaluator(key_dn, ctx)
    c_up = evaluator(key_up, ctx)
    c_md = evaluator(key, ctx)
    terms = [a_coef * c_dn, b_coef * c_up,
             (d_coef - x_val) * c_md]
    return _relative_residual(terms, (c_dn, c_up, c_md))


def recurrence_m_residual(key, ctx, evaluator=cgc_racah):
    """Residual of the recurrence moving one unit between m1 and m2.

    The relation is the product-basis expansion of the raising-lowering
    part of the coupled Casimir element: with Dm(J-)Dm(J+) acting on a
    coupled vector as [j+1/2]^2 - [m+1/2]^2 (because [a][b] equals
    [(a+b)/2]^2 - [(a-b)/2]^2), collecting the four coproduct cross
    terms on a fixed product state gives a three-term relation in
    (m1, m2) at fixed m.  A published variant of this relation carries
    a sign slip on the eigenvalue term and drops a factor q on the
    raising-side coefficient; the coefficients below are rederived from
    the coproduct expansion and vanish to working precision on every
    admissible key.
    """
    j1, m1, j2, m2, j, m = key.labels()
    a_coef = ctx.qinv * ctx.mp.sqrt(
        qnum(j1 + m1 + 1, ctx) * qnum(j1 - m1, ctx)
        * qnum(j2 + m2, ctx) * qnum(j2 - m2 + 1, ctx))
    b_coef = ctx.q * ctx.mp.sqrt(
        qnum(j1 + m1, ctx) * qnum(j1 - m1 + 1, ctx)
        * qnum(j2 + m2 + 1, ctx) * qnum(j2 - m2, ctx))
    x1 = qnum(j1 - m1, ctx) * qnum(j1 + m1 + 1, ctx)
    x2 = qnum(j2 - m2, ctx) * qnum(j2 + m2 + 1, ctx)
    eig = (qnum(j + HalfInt("1/2"), ctx) ** 2
           - qnum(m + HalfInt("1/2"), ctx) ** 2)
    d_coef = (ctx.qpow(_fr(m)) * x1 + ctx.qpow(-_fr(m)) * x2
              - ctx.qpow(_fr(m1 - m2)) * eig)
    c_a = evaluator(CgcKey(j1, m1 + 1, j2, m2 - 1, j, m), ctx)
    c_b = evaluator(CgcKey(j1, m1 - 1, j2, m2 + 1, j, m), ctx)
    c_d = evaluator(key, ctx)
    terms = [a_coef * c_a, b_coef * c_b, d_coef * c_d]
    return _relative_residual(terms, (c_a, c_b, c_d))


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

ALL_FORMULAS = {
    "sum": cgc_sum,
    "sum_alt": cgc_sum_alt,
    "3f2": cgc_3f2,
    "3f2_rw1": cgc_3f2_rw1,
    "3f2_rw2": cgc_3f2_rw2,
    "3f2_long_equiv": cgc_3f2_long_equiv,
    "racah": cgc_racah,
    "racah_binomial": cgc_racah_binomial,
}


@dataclass(frozen=True)
class CgcValue:
    value: object
    formula: str
    precision: int
    deviation: object = None
    reason: str = None


def compute(key, ctx, mode="default"):
    """Evaluate one coefficient; mode="crosscheck" runs every closed form.

    In crosscheck mode the reported deviation is the maximum pairwise
    difference across all formulas (plus the special-value fast path
    when one applies).
    """
    reason = selection_failure(key)
    if reason is not None:
        return CgcValue(value=ctx.to_mpf(0), formula="selection",
                        precision=ctx.precision, reason=reason)
    if mode == "default":
        return CgcValue(value=cgc_racah(key, ctx), formula="racah",
                        precision=ctx.precision)
    if mode != "crosscheck":
        raise QDomainError(f"unknown mode {mode!r}")
    values = {name: fn(key, ctx) for name, fn in ALL_FORMULAS.items()}
    sv = special_value(key, ctx)
    if sv is not None:
        values["special"] = sv
    vals = list(values.values())
    deviation = max(abs(a - b) for a in vals for b in vals)
    return CgcValue(value=values["racah"], formula="racah",
                    precision=ctx.precision, deviation=deviation)
