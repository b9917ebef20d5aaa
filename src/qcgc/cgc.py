"""Clebsch-Gordan coefficients of the q-deformed angular momentum algebra.

Eight closed forms (double-checked against each other and against the
matrix-level oracle in :mod:`qcgc.repsu`), ten special values (rows
checked against the general form) and the symmetry relations are all
stored as data rows of label forms.  On first use a row compiles into
one function from the doubled labels to its phase, its power of q, the
net power of each factorial past [1]! it names and its series'
parameters; one product (``_scale``) multiplies those factorials, and
every series of two or more terms in a row is summed by
``eval_terminating``.  ``racah_table`` sums whole tables as
convolutions, its column scales through a compiled row too, and the
three-term recurrence in m completes the module.

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

from .halfint import HalfInt, doubled
from .qcore import (QDomainError, _as_index, _bracket, _qpow_pair, _times,
                    factorial_pairs, root_factorial_pairs)
from .qhyper import (HyperSeriesSpec, _labels, _round_summand, _sum_with_guard,
                     eval_terminating)


_INT = frozenset({int})  # a twice= of ints alone is kept as it is


@dataclass(frozen=True, slots=True, init=False)
class CgcKey:
    """The sextuple (j1, m1, j2, m2, j, m) addressing one coefficient, held
    only as ``twice``, the six labels doubled as ints: ``CgcKey(j1, m1, j2,
    m2, j, m)`` reads each label through ``halfint.doubled``, and
    ``CgcKey(twice=(2j1, ..., 2m))`` takes the ints, read through
    ``qcore._as_index``, so a bool or a non-integral float or Fraction
    raises QDomainError.  A label read by name (``key.j1`` ... ``key.m``)
    or through ``labels()`` is a HalfInt made on the read."""

    twice: tuple

    def __init__(self, *labels, twice=None):
        if labels and twice is not None:
            raise TypeError("CgcKey takes six labels or twice=, not both")
        twice = tuple(twice or map(doubled, labels))
        if len(twice) != 6:
            raise TypeError(f"CgcKey takes six labels, not {len(twice)}")
        if not _INT.issuperset(map(type, twice)):
            twice = tuple(map(_as_index, twice))
        object.__setattr__(self, "twice", twice)

    j1, m1, j2, m2, j, m = (
        property(lambda self, i=i: HalfInt(twice=self.twice[i]))
        for i in range(6))

    def labels(self):
        return _labels(self.twice)

    def __str__(self):
        return "<{} {}, {} {}|{} {}>".format(*self.labels())


def selection_failure(key):
    """Reason the key fails the selection rules, or None if it passes."""
    j1, m1, j2, m2, j, m = key.twice
    if j1 < 0 or j2 < 0 or j < 0:
        return "selection: negative spin"
    if m != m1 + m2:
        return "selection: m != m1+m2"
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return "selection: |m| > j"
    if j < abs(j1 - j2) or j > j1 + j2:
        return "selection: triangle rule"
    if (j1 + j2 + j) % 2:
        return "selection: j1+j2+j not integral"
    if (j1 - m1) % 2 or (j2 - m2) % 2 or (j - m) % 2:
        return "selection: j-m not integral"
    return None


def selection_rules(key):
    """True iff the key addresses an admissible coefficient."""
    return selection_failure(key) is None


def admissible_keys(j1, j2):
    """All admissible keys for fixed (j1, j2), in deterministic order:
    by j, then m, then m1 up.  The loops run over doubled labels and build
    each key from them, so no HalfInt is made."""
    tj1, tj2 = doubled(j1), doubled(j2)
    keys = []
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tm in range(-tj, tj + 1, 2):
            for tm1 in range(max(-tj1, tm - tj2), min(tj1, tm + tj2) + 1, 2):
                keys.append(CgcKey(twice=(tj1, tm1, tj2, tm - tm1, tj, tm)))
    return keys


# ---------------------------------------------------------------------------
# forms in the labels, compiled to functions of the doubled labels
# ---------------------------------------------------------------------------

_VARIABLES = ("j1", "m1", "j2", "m2", "j", "m", "r")


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


@functools.cache
def _parse(text):
    """A form such as ``"j1*m2 - (j1+j2-j)*(j1+j2+j+1)/2"``, where a digit
    before a letter multiplies (``"2j+1"``), as (numerator, den, r).

    At the doubled labels (``HalfInt.twice``, bound to the label names)
    the form's value is numerator / den, numerator the source of an
    integer polynomial; r is the coefficient of the summation index r,
    which the numerator leaves out.
    """
    expr = re.sub(r"(\d)([a-z(])", r"\1*\2", text)
    poly = _poly(ast.parse(expr, mode="eval").body)
    r = int(poly.pop((_VARIABLES.index("r"),), 0))
    # a label enters as twice/2, so over the common denominator 4 * lcm
    # a monomial of degree d carries 2^(2-d)
    lcm = math.lcm(*(Fraction(c).denominator for c in poly.values()))
    terms = {mono: int(c * lcm) << (2 - len(mono))
             for mono, c in poly.items() if c}
    g = math.gcd(4 * lcm, *terms.values())
    monomials = []
    for mono, n in terms.items():
        factors = [_VARIABLES[i] for i in mono]
        if abs(n // g) != 1 or not factors:
            factors.insert(0, str(abs(n // g)))
        monomials.append(("- " if n < 0 else "+ ") + "*".join(factors))
    return " ".join(monomials).removeprefix("+ ") or "0", 4 * lcm // g, r


class _Source:
    """The source of one function of the six doubled labels.

    ``form`` returns an expression for a label form: kind "int" is the
    form's value and "twice" twice its value.  The numerator of a form
    with a denominator is computed once into a local, and ``function``
    raises QDomainError before its body when a form is not an integer;
    on a key that passes the selection rules every form of the rows
    below is one.  Rows compile their forms on first use, not at import.
    """

    def __init__(self):
        self.lines, self.masks, self.locals = [], {}, {}

    def form(self, kind, text):
        numerator, den, _ = _parse(text)
        if kind == "twice":
            if den == 1:
                return f"2 * ({numerator})"
            den //= 2
        if den == 1:
            return f"({numerator})"
        if den & (den - 1):
            raise ValueError(f"{text!r} has a denominator other than a power of 2")
        local = self.locals.get(numerator)
        if local is None:
            local = self.locals[numerator] = f"_{len(self.lines)}"
            self.lines.append(f"    {local} = {numerator}")
        checked = self.masks.setdefault(den - 1, [])
        if local not in checked:
            checked.append(local)
        return f"({local} >> {den.bit_length() - 1})"

    def function(self, body):
        """The function whose lines are the forms' locals, their check and
        then ``body``, lines indented as in the function's body."""
        labels = ", ".join(_VARIABLES[:6])
        checks = " or ".join(f"({' | '.join(names)}) & {mask}"
                             for mask, names in self.masks.items())
        lines = [f"def labels({labels}):", *self.lines]
        if checks:
            lines.append(f"    if {checks}:\n        raise QDomainError("
                         f"f'a label form is not an integer at 2*labels = "
                         f"{{({labels})}}')")
        source = "\n".join([*lines, *(f"    {line}" for line in body)])
        namespace = {"QDomainError": QDomainError}
        exec(compile(source, "<label forms>", "exec"), namespace)
        return namespace["labels"]


def _compile(shape):
    """One function of the six doubled labels that returns ``shape`` with
    its leaves evaluated: ``shape`` nests lists (returned as tuples) and
    leaves (kind, form), read as ``_Source.form`` reads them."""
    source = _Source()

    def emit(node):
        if isinstance(node, list):
            return "(" + "".join(emit(x) + ", " for x in node) + ")"
        return source.form(*node)

    return source.function([f"return {emit(shape)}"])


def _net_lines(factors):
    """Body lines that gather ``factors``, pairs (expression n, net power
    of sqrt([n]!)), into ``net`` for ``_scale``: each n > 1 while its power
    is not 0.  A negative n raises QDomainError naming the least."""
    names = [f"n{i}" for i in range(len(factors))]
    fail = f"QDomainError(f'q_factorial: negative argument {{{_least(names)}}}')"
    lines = [f"{name} = {n}" for name, (n, _) in zip(names, factors)]
    lines += ["net = {}", "get = net.get"]
    for name, (_, weight) in zip(names, factors):
        lines += [f"if {name} > 1:",
                  f"    p = net[{name}] = get({name}, 0) + {weight}",
                  "    if not p:", f"        del net[{name}]",
                  f"elif {name} < 0:", f"    raise {fail}"]
    return lines


def _least(names):
    """The source of the least of the expressions ``names``."""
    return names[0] if len(names) == 1 else f"min({', '.join(names)})"


def _factorials(text):
    """The forms n of the factorials [n]! above and below the line of a
    ratio such as ``"[2j+1] [j+m]! / [j-m]!"``, as (ups, downs), each
    bracket [n] written as [n]! / [n-1]!."""
    ups, downs = [], []
    num, _, den = text.partition("/")
    for side, same, other in ((num, ups, downs), (den, downs, ups)):
        for arg, bang in re.findall(r"\[([^\]]*)\](!?)", side):
            same.append(arg)
            if not bang:
                other.append(f"({arg}) - 1")
    return ups, downs


def _scale(phase, twice_power, net, c):
    """The ``c.width``-bit pair of (-1)^phase q^(twice_power/2) prod
    sqrt([n]!)^e over the items (n, e) of ``net``: one running product
    over the context's tables.

    ``phase`` is 0 or 1 and ``net`` a compiled row's (``_net_lines``):
    the net power e != 0 of sqrt([n]!) for each n > 1 a row names, so the
    factorials have cancelled before they are multiplied: n enters as
    sqrt([n]!)^sign(e) when e is odd and [n]!^sign(e) |e|//2 times.  The
    factor count k of a rounding bound on the product is the length of
    that list, plus one for the q-power.

    The reduced factors are multiplied by n ascending, not in the order
    a row names them: each product is truncated, so the order sets the
    last bits, and with it fixed two rows whose factorials cancel to the
    same net powers give the same pair (see ``compute``)."""
    top = max(net, default=0)
    fact, inverse = factorial_pairs(top, c)
    roots, inverse_roots = root_factorial_pairs(top, c)
    factors = []
    for n in sorted(net):
        e = net[n]
        if e % 2:
            factors.append(roots[n] if e > 0 else inverse_roots[n])
        if abs(e) > 1:
            factors += [fact[n] if e > 0 else inverse[n]] * (abs(e) // 2)
    man, exp = _times(*_qpow_pair(twice_power, c), factors, c.width)
    return (-man if phase else man), exp


# ---------------------------------------------------------------------------
# closed forms and special values, stored as data
# ---------------------------------------------------------------------------

class FactorialSum:
    """sum_r (-1)^r q^(power*r) prod [a_i + s_i r]!^(+-1), s_i = +-1.

    r runs over the integers at which every denominator argument is >= 0,
    which is the continuation 1/[negative]! := 0; a q-binomial and a
    Pochhammer (-n|q)_k = (-1)^k [n]!/[n-k]! both fit this shape.  The
    row is a terminating series written as in the paper, and the row's
    compiled function (``body``) reads it as its first summand's
    factorials times a terminating series, or as that summand alone when
    r takes one value.
    """

    def __init__(self, power, factors):
        self.power = power
        self.num, self.den = _factorials(factors)

    def shape(self):
        """The power, then the a_i of the rising (s_i = 1) and falling
        (s_i = -1) factorials of the numerator and of the denominator.

        From r to r + 1 a rising factorial [a+r]! gains [a+r+1] and a
        falling one [a-r]! loses [a-r] = -[r-a], so the sum is a series
        in q^power only when the (-1)^r alternation cancels the signs of
        the falling factorials; a row in which it does not raises
        QDomainError.
        """
        steps = [[_parse(a)[2] for a in side] for side in (self.num, self.den)]
        signs = steps[0] + steps[1]
        if set(signs) - {1, -1} or not signs.count(-1) % 2:
            raise QDomainError("factorial sum: each argument must step by +-1 "
                               "in r, and the (-1)^r alternation must cancel "
                               "the signs of the falling factorials")
        return [("int", self.power),
                *([("int", a) for a, s in zip(side, side_steps) if s == sign]
                  for side, side_steps in zip((self.num, self.den), steps)
                  for sign in (1, -1))]

    def body(self, source, phase, power, named):
        """The compiled function's lines from the series on, after the
        row's ``phase`` and ``power`` expressions and its ``named``
        factorials, pairs (expression, net power).

        r runs from lo = -min(a) over the rising denominator factorials
        [a+r]! to hi = min(a) over the falling ones [a-r]!, and an empty
        range returns None.  With k = r - lo the sum is its summand at
        lo, (-1)^lo q^(power lo) times the factorials at lo, which join
        the named ones in ``net``, times a terminating series at argument
        q^power.  Its parameters are read off each factorial's argument x
        at lo: a rising numerator factorial gives the numerator parameter
        x+1, a falling denominator one -x (whose zero cuts the series off
        at hi - lo), a rising denominator one the denominator parameter
        x+1 (the one with x = 0 is the series' own 1/[k+1]) and a falling
        numerator one -x.  When lo = hi the sum is its one summand and
        the spec is None.
        """
        e, *sides = self.shape()
        lines, names = [f"e = {source.form(*e)}"], []
        for side in sides:
            names.append([])
            for leaf in side:
                names[-1].append(f"x{len(lines)}")
                lines.append(f"{names[-1][-1]} = {source.form(*leaf)}")
        num_up, num_down, den_up, den_down = names
        lines += [f"lo = -{_least(den_up)}", f"hi = {_least(den_down)}",
                  "if lo > hi:", "    return None"]
        # the denominator's arguments are >= 0 from lo to hi by definition
        if num_up or num_down:
            least = _least([f"{x} + lo" for x in num_up]
                           + [f"{x} - hi" for x in num_down])
            lines += [f"least = {least}", "if least < 0:",
                      "    raise QDomainError("
                      "f'q_factorial: negative argument {least}')"]
        at_lo = {x: f"{x} + lo" for x in num_up + den_up}
        at_lo.update((x, f"{x} - lo") for x in num_down + den_down)
        lines += _net_lines([*named, *((at_lo[x], 2) for x in num_up + num_down),
                             *((at_lo[x], -2) for x in den_up + den_down)])
        first = f"({phase} + lo) & 1, {power} + 2 * e * lo, net"
        upper = ([f"2 * ({at_lo[x]}) + 2" for x in num_up]
                 + [f"-2 * ({at_lo[x]})" for x in den_down])
        lower = ([f"2 * ({at_lo[x]}) + 2" for x in den_up]
                 + [f"-2 * ({at_lo[x]})" for x in num_down])
        return [*lines, "if lo == hi:", f"    return {first}, None",
                f"lower = [{', '.join(lower)}]", "lower.remove(2)",
                f"return {first}, (({''.join(x + ', ' for x in upper)}), "
                "lower, 2 * e)"]


class HyperSeries:
    """A terminating 3F2 at argument q^arg_exponent, parameters as forms;
    the row's compiled function (``body``) hands back its doubled
    parameters and argument, with no summand of its own, or no spec when
    a numerator parameter is 0: the series is then its first term, 1."""

    def __init__(self, numerator, denominator, arg_exponent):
        self.numerator = numerator
        self.denominator = denominator
        self.arg_exponent = arg_exponent

    def shape(self):
        return [[("twice", f) for f in self.numerator],
                [("twice", f) for f in self.denominator],
                ("twice", self.arg_exponent)]

    def body(self, source, phase, power, named):
        """The compiled function's lines from the series on, as in
        ``FactorialSum.body``."""
        num, den, arg = self.shape()
        num, den = ("".join(source.form(*leaf) + ", " for leaf in side)
                    for side in (num, den))
        return [*_net_lines(named), f"num = ({num})", "if 0 in num:",
                f"    return {phase} & 1, {power}, net, None",
                f"return {phase} & 1, {power}, net, (num, ({den}), "
                f"{source.form(*arg)})"]


class ClosedForm:
    """One closed form or special value as a row of label forms.

    The value is one product, (-1)^phase q^power sqrt(root) times the
    outside factors, times a terminating series when the row has one: a
    HyperSeries, or a FactorialSum, which is one written as in the paper
    and adds its first summand to the product.  Special values carry in
    ``match`` the forms that vanish on their pattern.

    The root and the outside factors are written as factorials when the
    row is built, a bracket [n] as [n]! / [n-1]!.  On first use the row
    compiles into one function of the six doubled labels, ``_compiled``,
    that returns (phase mod 2, twice_power, net, spec), or None when a
    factorial sum's range of r is empty: ``net`` maps each factorial
    argument n > 1 of the row and of its series' first summand to its
    net power of sqrt([n]!) unless that is 0 (``_net_lines``), and
    ``spec`` holds the series' doubled parameters and argument, or is
    None when the series has one term.  ``value`` evaluates that tuple
    (``_evaluate``): rows with equal tuples are one product on the key.
    The product is one ``_scale`` pass of (man, exp) pairs over the
    context's sqrt([n]!) and [n]! tables and its q^(+-1/2) powers, and
    it is the series' scale in ``eval_terminating``, so that the value
    is rounded once.  A row whose series has one term is its product
    rounded once, as ``eval_terminating`` rounds a series with cutoff 0,
    and builds no spec, bracket table or guarded sum.
    """

    def __init__(self, power, root, phase="0", outside="", series=None,
                 match=()):
        self.phase, self.power = phase, power
        self.factorials = (*_factorials(root), *_factorials(outside))
        self.series = series
        self.match = match

    @functools.cached_property
    def _compiled(self):
        source = _Source()
        phase = source.form("int", self.phase)
        power = source.form("twice", self.power)
        named = [(source.form("int", form), weight)
                 for forms, weight in zip(self.factorials, (1, -1, 2, -2))
                 for form in forms]
        if self.series is None:
            body = [*_net_lines(named), f"return {phase} & 1, {power}, net, None"]
        else:
            body = self.series.body(source, phase, power, named)
        return source.function(body)

    @functools.cached_property
    def _match(self):
        # the match forms have denominator 2, so twice their value is an
        # integer on any key
        return _compile([("twice", f) for f in self.match])

    def matches(self, key):
        """True if every match form vanishes on the key."""
        return not any(self._match(*key.twice))

    def value(self, key, ctx):
        return _evaluate(self._compiled(*key.twice), ctx)


def _evaluate(compiled, ctx):
    """The value of a row's compiled tuple on a key (``ClosedForm``):
    equal tuples give equal bits."""
    if compiled is None:
        return ctx.to_mpf(0)
    phase, power, net, spec = compiled
    scale = _scale(phase, power, net, ctx)
    if spec is None:
        return ctx.mp.mpf(scale)
    return eval_terminating(HyperSeriesSpec(twice=spec), ctx, scale=scale)


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


def _unitary(value, key, name):
    """value, the row ``name``'s on key, unless |value| >= 2 (its mpf's
    exponent plus bit count exceeds 1), which no coupling coefficient
    reaches, as unitarity bounds each by 1: then the row lost its digits,
    and ArithmeticError says so."""
    _, _, exp, bc = value._mpf_
    if exp + bc > 1:
        raise ArithmeticError(
            f"the {name} row gives {key} = {value.context.nstr(value, 5)}, "
            "past the unitarity bound 1: its sum lost its digits")
    return value


def _closed_form(name):
    row = CLOSED_FORMS[name]

    def evaluate(key, ctx):
        if not selection_rules(key):
            return ctx.to_mpf(0)
        return _unitary(row.value(key, ctx), key, name)

    evaluate.__name__ = evaluate.__qualname__ = f"cgc_{name}"
    evaluate.__doc__ = f"The coefficient through the {name!r} closed form."
    return evaluate


ALL_FORMULAS = {name: _closed_form(name) for name in CLOSED_FORMS}
cgc_sum = ALL_FORMULAS["sum"]
cgc_sum_alt = ALL_FORMULAS["sum_alt"]
cgc_3f2 = ALL_FORMULAS["3f2"]
cgc_3f2_rw1 = ALL_FORMULAS["3f2_rw1"]
cgc_3f2_rw2 = ALL_FORMULAS["3f2_rw2"]
cgc_3f2_long_equiv = ALL_FORMULAS["3f2_long_equiv"]
cgc_racah = ALL_FORMULAS["racah"]
cgc_racah_binomial = ALL_FORMULAS["racah_binomial"]


# the scale that the keys of one (j, m) share in ``racah_table``
_COLUMN_SCALE = ClosedForm(
    power="j1*(m-j1-j2)",
    root="[2j+1] [j+m]! [j-m]! [j1+j2-j]! [j+j1-j2]! [j+j2-j1]! / [j1+j2+j+1]!")


def racah_table(j1, j2, ctx):
    """Every admissible coefficient of one spin pair through the 'racah'
    row: {doubled labels (``CgcKey.twice``): value}, in the order of
    ``admissible_keys(j1, j2)``.

    The keys of one (j, m) form a column, and its Racah sums are one
    convolution.  With u = j1 - m1, v = j2 + m2 = d + u, d = j2 - j1 + m,
    n = j1 + j2 - j and s = u - r, key u's summand at r is a_r b_s times
    the key's prefactor, where

        a_r = (-1)^r q^((n/2 - r)(j1+j2+j+1)) / ([r]! [n-r]!),
        b_s = 1 / ([s]! [j-m-s]!) * 1 / ([d+s]! [j+m-d-s]!).

    Each product is built once, where its inputs are fixed:
    - per table, ``ones[u]`` = sqrt([j1+m1]! [j1-m1]!) q^((j1+j2) u) and
      ``twos[v]`` = sqrt([j2+m2]! [j2-m2]!) and the rows 1/([x]! [t-x]!)
      by t <= 2j1 + 2j2;
    - per j, the a-list: row n times a running q-power, shared by the
      2j+1 columns of that j;
    - per column, the scale that its keys share (``_COLUMN_SCALE``),
      with the q-power q^(j1 (m-j1-j2)), and the b-list, each b_s one
      product of two row entries;
    - per key, the prefactor: the scale times ``ones[u]`` times
      ``twos[v]``.
    These lists are local to the call and made in ``ctx`` alone, and
    every product is truncated to the context's width after each factor.
    A first-pass summand then carries k = r + u + 13 roundings plus the
    length of the scale's reduced factor list: r + 3 in a_r (its first
    q-power, r steps, the row entry and the product), 3 in b_s, u + 2 in
    ``ones[u]`` (u steps and the product with two roots), 1 in
    ``twos[v]``, 2 in the key's product, 1 for the scale's q-power and 1
    in the summing.
    A key with two or more summands goes through the guard as in
    ``cgc_racah``.  Should the guard boost, its pass sums one term, the
    key's 'racah' row evaluated in the boosted context, which is guarded
    itself and carries that row's roundings, not the column's k.  A key
    with one summand is that summand truncated to the width and rounded
    once, which is what the guarded sum of one term returns
    (``_round_summand``).  At q = 1 each value is the 'racah' row's,
    summed exactly and rounded once.
    """
    if ctx.is_classical:
        row = CLOSED_FORMS["racah"]
        return {key.twice: row.value(key, ctx) for key in admissible_keys(j1, j2)}
    tj1, tj2 = doubled(j1), doubled(j2)
    width, top = ctx.width, tj1 + tj2
    roots = root_factorial_pairs(max(tj1, tj2), ctx)[0]
    power, step, ones = (1 << (width - 1), 1 - width), _qpow_pair(top, ctx), []
    for u in range(tj1 + 1):
        ones.append(_times(*power, (roots[tj1 - u], roots[u]), width))
        power = _times(*power, (step,), width)
    twos = [_times(*roots[v], (roots[tj2 - v],), width) for v in range(tj2 + 1)]
    inverse = factorial_pairs(top, ctx)[1]
    rows = [[_times(*inverse[x], (inverse[t - x],), width) for x in range(t + 1)]
            for t in range(top + 1)]
    values = {}
    for tj in range(abs(tj1 - tj2), top + 1, 2):
        # the a-list of j = j1+j2-n, its q-power q^((n/2 - r)(j1+j2+j+1))
        # from q^(n (j1+j2+j+1)/2) at r = 0
        n, a = (top - tj) // 2, []
        power = _qpow_pair(n * (top + 1 - n), ctx)
        step = _qpow_pair(2 * (n - top - 1), ctx)
        for r, entry in enumerate(rows[n]):
            m, e = _times(*power, (entry,), width)
            a.append((-m if r % 2 else m, e))
            power = _times(*power, (step,), width)
        for tm in range(-tj, tj + 1, 2):
            values.update(_racah_column(tj1, tj2, tj, tm, ones, twos, rows, a, ctx))
    return values


def _racah_column(tj1, tj2, tj, tm, ones, twos, rows, a, ctx):
    """{doubled labels: value} of the keys of one (j, m), by m1 up, from
    the table's rows and the a-list of j."""
    n = (tj1 + tj2 - tj) // 2          # j1+j2-j
    plus = (tj + tj1 - tj2) // 2       # j+j1-j2
    jp, jm = (tj + tm) // 2, (tj - tm) // 2
    d = (tj2 - tj1 + tm) // 2          # j2-j1+m, so that j2+m2 = d+u
    s_lo, s_hi = max(0, -d), min(plus, jm)
    u_lo, u_hi = max(0, -d), min(tj1, (tj1 + tj2 - tm) // 2)
    # the column's share of the prefactor, whose forms read no m1 or m2
    man, exp = _scale(*_COLUMN_SCALE._compiled(tj1, 0, tj2, 0, tj, tm)[:3], ctx)
    # b_s for s = 0..s_hi, None below s_lo
    left, right = rows[jm], rows[jp]
    b = [None] * s_lo + [_times(*left[s], (right[d + s],), ctx.width)
                         for s in range(s_lo, s_hi + 1)]
    # on an admissible key the range of r is never empty
    column = {}
    for u in range(u_lo, u_hi + 1):
        pm, pe = _times(man, exp, (ones[u], twos[d + u]), ctx.width)
        key = (tj1, tj1 - 2 * u, tj2, tm - tj1 + 2 * u, tj, tm)
        r_lo, r_hi = max(0, u - s_hi), min(n, u - s_lo)
        if r_lo == r_hi:
            (am, ae), (bm, be) = a[r_lo], b[u - r_lo]
            column[key] = _round_summand(am * bm * pm, ae + be + pe, ctx)
            continue
        summands = [(am * bm * pm, ae + be + pe) for (am, ae), (bm, be)
                    in zip(a[r_lo:r_hi + 1], reversed(b[u - r_hi:u - r_lo + 1]))]
        # a boosted pass sums the key's 'racah' row in its context instead
        column[key] = _sum_with_guard(lambda c: summands if c is ctx else [
            c.to_pair(CLOSED_FORMS["racah"].value(CgcKey(twice=key), c))], ctx)
    return dict(reversed(column.items()))


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

    def __init__(self, key_map, q_flip, phase_form="0", power_form="0",
                 norm_num=None, norm_den=None):
        self.key_map = key_map
        self.q_flip = q_flip
        self.phase_form = phase_form
        self.power_form = power_form
        self.norm = () if norm_num is None else (norm_num, norm_den)

    @functools.cached_property
    def _labels(self):
        return _compile([
            [("twice", f) for f in self.key_map], ("int", self.phase_form),
            ("twice", self.power_form), [("twice", f) for f in self.norm]])


SYMMETRIES = {
    "swap12": SymmetryRelation(
        key_map=("j2", "m2", "j1", "m1", "j", "m"), q_flip=True,
        phase_form="j1+j2-j"),
    "negate_m": SymmetryRelation(
        key_map=("j2", "-m2", "j1", "-m1", "j", "-m"), q_flip=False),
    "j_j1": SymmetryRelation(
        key_map=("j", "-m", "j2", "m2", "j1", "-m1"),
        q_flip=True, phase_form="j2+m2", power_form="-m2",
        norm_num="j", norm_den="j1"),
    "j_j1_composed": SymmetryRelation(
        key_map=("j2", "-m2", "j", "m", "j1", "m1"),
        q_flip=True, phase_form="j2+m2", power_form="-m2",
        norm_num="j", norm_den="j1"),
    "j_j2": SymmetryRelation(
        key_map=("j", "m", "j1", "-m1", "j2", "m2"),
        q_flip=True, phase_form="j1-m1", power_form="m1",
        norm_num="j", norm_den="j2"),
    "rose_jj2": SymmetryRelation(
        key_map=("j1", "m1", "j", "-m", "j2", "-m2"),
        q_flip=True, phase_form="j1-m1", power_form="m1",
        norm_num="j", norm_den="j2"),
    "regge": SymmetryRelation(
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
    twice_power: int  # the power of q, doubled
    twice_norm: tuple  # (2a, 2b) for sqrt([2a+1]/[2b+1]), or ()

    def prefactor(self, ctx):
        v = (-1) ** self.phase * ctx.qpow(Fraction(self.twice_power, 2))
        if self.twice_norm:
            a, b = self.twice_norm
            v *= ctx.mp.sqrt(_bracket(2 * a + 2, ctx)
                             / _bracket(2 * b + 2, ctx))
        return v


def apply_symmetry(key, relation):
    """Descriptor such that CGC_q(key) = prefactor * CGC_q'(mapped key)."""
    if isinstance(relation, str):
        relation = SYMMETRIES[relation]
    key_map, phase, twice_power, norm = relation._labels(*key.twice)
    return SymmetryDescriptor(
        key=CgcKey(twice=key_map),
        q_flip=relation.q_flip,
        phase=phase % 2,
        twice_power=twice_power,
        twice_norm=tuple(norm),
    )


# ---------------------------------------------------------------------------
# special values
# ---------------------------------------------------------------------------

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
        # the two-term 3F2 [2j2] [j1+j2-m] - [2j1+2j2] [j2-m2] q^(j1+m1),
        # rederived; its numerator parameter reads 2j1+2j2, not the
        # difference of the spins
        phase="1", outside="[2j2] [j1+j2-m]",
        series=HyperSeries(("-1", "2j1+2j2", "j2-m2"), ("2j2", "j1+j2-m"),
                           "j1+m1")),
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
    # with merged denominators, finite when j < max(j1, j2); exact at
    # q = 1, where it vanishes when j1 + j2 + j is odd
    "all_m_zero": ClosedForm(
        match=("m1", "m2"), phase="j1+j2-j",
        power="-(j1+j2-j)*(j1+j2+j+1)/2",
        root=("[2j+1] [j+j1-j2]! [j+j2-j1]! / [j1+j2+j+1]! [j1+j2-j]!"),
        outside="[j]! [j1+j2-j]! [j1]! [j2]!",
        series=FactorialSum(
            "j1+j2+j+1", ("/ [r]! [j1+j2-j-r]! [j1-r]! [j2-r]! [j-j1+r]! "
                          "[j-j2+r]!"))),
}


def special_value(key, ctx):
    """The key's special value, a closed form on a special pattern that
    is checked against the general form.

    Returns None when no pattern applies; the patterns are tried in the
    order of SPECIAL_VALUES.
    """
    if not selection_rules(key):
        return None
    row = _special_row(key)
    return None if row is None else _unitary(row.value(key, ctx), key,
                                             "special value")


def _special_row(key):
    """The first SPECIAL_VALUES row whose pattern matches an admissible
    key, or None."""
    for row in SPECIAL_VALUES.values():
        if row.matches(key):
            return row
    return None


def classical_parity_zero_value(j1, j2, j, ctx):
    """Classical (q=1) value of <j1 0, j2 0|j 0> from the Dixon summation."""
    twice = [doubled(label) for label in (j1, j2, j)]
    if any(t % 2 for t in twice):
        raise ValueError(f"{j1}, {j2}, {j} are not all integers")
    j1, j2, j = (t // 2 for t in twice)
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


def recurrence_m_residual(key, ctx):
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
    j1, m1, j2, m2, j, m = key.twice  # doubled
    b = functools.partial(_bracket, ctx=ctx)  # b(2x) is [x]
    a_coef = ctx.qinv * ctx.mp.sqrt(
        b(j1 + m1 + 2) * b(j1 - m1) * b(j2 + m2) * b(j2 - m2 + 2))
    b_coef = ctx.q * ctx.mp.sqrt(
        b(j1 + m1) * b(j1 - m1 + 2) * b(j2 + m2 + 2) * b(j2 - m2))
    x1 = b(j1 - m1) * b(j1 + m1 + 2)
    x2 = b(j2 - m2) * b(j2 + m2 + 2)
    eig = b(j + 1) ** 2 - b(m + 1) ** 2
    d_coef = (ctx.qpow(Fraction(m, 2)) * x1 + ctx.qpow(Fraction(-m, 2)) * x2
              - ctx.qpow(Fraction(m1 - m2, 2)) * eig)
    c_a, c_b = (cgc_racah(CgcKey(twice=(j1, m1 + t, j2, m2 - t, j, m)), ctx)
                for t in (2, -2))
    c_d = cgc_racah(key, ctx)
    terms = [a_coef * c_a, b_coef * c_b, d_coef * c_d]
    return _relative_residual(terms, (c_a, c_b, c_d))


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CgcValue:
    """A coefficient, the row it came from and, in crosscheck mode, the
    spread of the rows that checked it and ``routes``, the number of
    distinct computations among them (see ``compute``)."""

    value: object
    formula: str
    deviation: object = None
    reason: str = None
    routes: int = None


# the rows a crosscheck compares, 'racah' first, the special row after
_CROSSCHECK_ROWS = sorted(CLOSED_FORMS.items(), key=lambda item: item[0] != "racah")


def compute(key, ctx, mode="default"):
    """Evaluate one coefficient; mode="crosscheck" checks it against every
    closed form.

    In crosscheck mode the reported deviation is the maximum pairwise
    difference across all closed forms, plus the special value when one
    applies.  Each row compiles to the inputs of its product on the key
    (``ClosedForm._compiled``), and equal inputs give equal bits, so the
    rows are taken in turn, 'racah' first and the special row last, and
    a row is evaluated only when its tuple differs from every tuple
    evaluated before it; ``routes`` counts those evaluations, 1 when
    every row is one product.  Either mode raises ArithmeticError when a
    value it evaluates is 2 or more in size, past the unitarity bound.
    """
    reason = selection_failure(key)
    if reason is not None:
        return CgcValue(value=ctx.to_mpf(0), formula="selection", reason=reason)
    # the key passed the selection rules above, so the rows are read
    # directly, not through cgc_* and special_value
    if mode == "default":
        value = CLOSED_FORMS["racah"].value(key, ctx)
        return CgcValue(value=_unitary(value, key, "racah"), formula="racah")
    if mode != "crosscheck":
        raise QDomainError(f"unknown mode {mode!r}")
    rows = _CROSSCHECK_ROWS
    special = _special_row(key)
    if special is not None:
        rows = [*rows, ("special value", special)]
    tuples, values = [], []
    for name, row in rows:
        compiled = row._compiled(*key.twice)
        # tuple ==, which compares the net dicts and specs in C
        if compiled not in tuples:
            tuples.append(compiled)
            values.append(_unitary(_evaluate(compiled, ctx), key, name))
    # the largest |a - b| over every pair, as rounding is monotone, and
    # an exact 0 when the values agree, as they mostly do
    distinct = {x._mpf_: x for x in values}.values()
    deviation = (max(distinct) - min(distinct) if len(distinct) > 1
                 else ctx.to_mpf(0))
    return CgcValue(value=values[0], formula="racah", deviation=deviation,
                    routes=len(values))
