"""Unit tests for the Clebsch-Gordan closed forms and their structure."""

import collections
import functools
import itertools
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qcgc import CgcKey, HalfInt, QContext, admissible_keys, compute, halfint_range
from qcgc import cgc, qcore, qhyper
from qcgc.cgc import (
    ALL_FORMULAS,
    SYMMETRIES,
    apply_symmetry,
    cgc_3f2,
    cgc_3f2_long_equiv,
    cgc_racah,
    cgc_sum,
    cgc_sum_alt,
    classical_parity_zero_value,
    racah_table,
    recurrence_m_residual,
    selection_failure,
    special_value,
)
from qcgc.qcore import (QDomainError, _qpow_pair, _times, factorial_pairs, qnum,
                        root_factorial_pairs)
from qcgc.qhahn import recurrence_j_residual
from qcgc.qhyper import (_sum_with_guard, closed_sum_dixon, closed_sum_negative,
                         closed_sum_positive, closed_sum_vandermonde, dixon_spec,
                         eval_terminating, negative_spec, vandermonde_spec)

CTX = QContext(q="0.5", precision=50)


def _random_key(rng, cap=2):
    pool = [HalfInt(twice=t) for t in range(2 * cap + 1)]
    while True:
        j1, j2 = rng.choice(pool), rng.choice(pool)
        j = rng.choice(halfint_range(abs(j1 - j2), j1 + j2))
        m = rng.choice(halfint_range(-j, j))
        m1s = [m1 for m1 in halfint_range(-j1, j1) if abs(m - m1) <= j2]
        if m1s:
            m1 = rng.choice(m1s)
            return CgcKey(j1, m1, j2, m - m1, j, m)


def test_selection_failures_are_reported():
    assert selection_failure(CgcKey(1, 0, 1, 0, 3, 0)) is not None  # triangle
    assert selection_failure(CgcKey(1, 0, 1, 1, 2, 0)) is not None  # m sum
    assert selection_failure(CgcKey(1, 2, 1, 0, 2, 2)) is not None  # |m1|>j1
    assert selection_failure(CgcKey(1, 0, "1/2", "1/2", 1, "1/2")) is not None
    assert selection_failure(CgcKey(1, 0, 1, 0, 2, 0)) is None


def test_a_key_is_its_doubled_labels():
    # built from labels of any type or from doubled ints, a key holds only
    # the doubled tuple; a label read by name is a HalfInt made on the read
    key = CgcKey("1/2", Fraction(1, 2), 1, 0, HalfInt("3/2"), 0.5)
    same = CgcKey(twice=(1, 1, 2, 0, 3, 1))
    assert key.twice == (1, 1, 2, 0, 3, 1) and not hasattr(key, "__dict__")
    assert key == same and hash(key) == hash(same)
    assert key != CgcKey(twice=(1, -1, 2, 2, 3, 1))
    assert str(key) == "<1/2 1/2, 1 0|3/2 1/2>"
    assert key.labels() == tuple(HalfInt(twice=t) for t in key.twice)
    assert (key.j1, key.m1, key.j2, key.m2, key.j, key.m) == key.labels()
    assert type(key.j) is HalfInt
    for bad in ((1, 0, 1, 0, 2), (1,) * 7):
        with pytest.raises(TypeError):
            CgcKey(*bad)
        with pytest.raises(TypeError):
            CgcKey(twice=bad)
    with pytest.raises(TypeError):
        CgcKey(1, twice=same.twice)
    with pytest.raises(AttributeError):
        key.twice = (1, -1, 2, 2, 3, 1)
    # twice= is read as indices are: a float was kept, so that (1.5, 0.5,
    # 1, 0, 1.5, 0.5) gave a "selection" 0.0, and a bool was read as 1
    for bad in ((1.5, 0.5, 1, 0, 1.5, 0.5), (True, True, True, -1, 2, 0),
                [1, 1, 2, 0, 3, Fraction(1, 2)]):
        with pytest.raises(QDomainError, match="integer index"):
            CgcKey(twice=bad)
    read = CgcKey(twice=(Fraction(1), 1.0, 2, 0, 3, 1))
    assert read == same and {type(t) for t in read.twice} == {int}


def test_integer_selection_rules_admit_exactly_the_admissible_keys():
    # every doubled-label sextuple with 2j's in 0..3 and 2m's in -3..3
    spins = [HalfInt(twice=t) for t in range(4)]
    admissible = {key.twice for j1 in spins for j2 in spins
                  for key in admissible_keys(j1, j2) if key.twice[4] <= 3}
    passing = set()
    for t in itertools.product(range(4), range(-3, 4), repeat=3):
        if selection_failure(CgcKey(*(HalfInt(twice=x) for x in t))) is None:
            passing.add(t)
    assert len(admissible) == 113
    assert passing == admissible


def test_compute_zero_with_reason_on_selection_failure():
    result = compute(CgcKey(1, 0, 1, 1, 2, 0), CTX)
    assert result.value == 0
    assert "selection" in result.reason


def test_admissible_key_count():
    # j1 = j2 = 1/2 couples into 4 states, each a combination of at most
    # two product states: 6 nonzero keys in total
    keys = admissible_keys(HalfInt("1/2"), HalfInt("1/2"))
    assert len(keys) == 6
    keys = admissible_keys(HalfInt(1), HalfInt(1))
    assert len(keys) == 19


def test_admissible_keys_build_each_label_once(monkeypatch):
    # the loops run over doubled labels and a key holds only those, so
    # no HalfInt is built, and the keys come by j, m, m1 up
    created = []
    build = HalfInt.__init__

    def counting(self, *args, **kwargs):
        created.append((args, kwargs))
        build(self, *args, **kwargs)

    j1, j2 = HalfInt(2), HalfInt("3/2")
    monkeypatch.setattr(HalfInt, "__init__", counting)
    keys = admissible_keys(j1, j2)
    assert len(keys) == 60
    assert len([k for k in keys if k.twice[4] <= 5]) == 40
    assert created == []
    monkeypatch.undo()
    assert [k.twice for k in keys] == sorted(
        (k.twice for k in keys), key=lambda t: (t[4], t[5], t[1]))


def test_stretched_key_is_one():
    for j1, j2 in (("1/2", "1/2"), (1, "3/2"), (2, 1)):
        key = CgcKey(j1, j1, j2, j2,
                     HalfInt(j1) + HalfInt(j2), HalfInt(j1) + HalfInt(j2))
        assert CTX.close(cgc_racah(key, CTX), 1)


def test_all_formulas_agree_on_random_keys():
    rng = random.Random(7)
    with CTX.work():
        for _ in range(12):
            key = _random_key(rng)
            values = [fn(key, CTX) for fn in ALL_FORMULAS.values()]
            for v in values[1:]:
                assert CTX.close(values[0], v)


def test_crosscheck_deviation_is_tight():
    result = compute(CgcKey(1, 0, 1, 0, 2, 0), CTX, mode="crosscheck")
    assert result.deviation < CTX.tol


def test_crosscheck_deviation_is_the_largest_pairwise_difference():
    # the reported deviation against max |a - b| over every ordered pair
    # of forms, the special value among them where one applies; at these
    # spins the forms agree bit for bit at q = 1, and differ on a few keys
    # at q = 2 and on many at q = 0.3 and 0.1
    spins = [HalfInt(twice=t) for t in range(4)]
    keys = [key for j1 in spins for j2 in spins
            for key in admissible_keys(j1, j2)]
    with_special = nonzero = 0
    for ctx in (QContext(q=q, precision=50) for q in ("0.1", "0.3", "1", "2")):
        for key in keys:
            values = [fn(key, ctx) for fn in ALL_FORMULAS.values()]
            sv = special_value(key, ctx)
            if sv is not None:
                values.append(sv)
                with_special += 1
            pairwise = max(abs(a - b) for a in values for b in values)
            deviation = compute(key, ctx, mode="crosscheck").deviation
            assert deviation._mpf_ == pairwise._mpf_, (ctx.q, key)
            nonzero += deviation != 0
    assert with_special > 500 and nonzero > 100


def test_the_racah_rewrites_share_one_tuple():
    # '3f2_rw2' and 'racah_binomial' compile to the 'racah' row's tuple on
    # every admissible key with 2j1, 2j2 <= 8, so a crosscheck sums no
    # series of theirs apart from the racah sum's; a row that writes the
    # racah sum in other words shares it too, and one whose series takes
    # its parameters in another order does not, as that order sets how
    # the term products round
    rows = [cgc.CLOSED_FORMS[name] for name in ("racah", "3f2_rw2", "racah_binomial")]
    rows.append(cgc.ClosedForm(
        power="m2*j1 - m1*j2 + (j+j2+j1+1)*(j2+j1-j)/2",
        root=("[j-m]! [j+m]! [2j+1] [j1-m1]! [m1+j1]! [j2+m2]! [j2-m2]! "
              "[j1+j2-j]! [j1-j2+j]! [j+j2-j1]! / [1+j+j1+j2]!"),
        series=cgc.FactorialSum("-(j1+j2+j+1)", cgc._RACAH_TERMS)))
    swapped = cgc.ClosedForm(
        power=cgc._QUADRATIC_PLUS,
        root=("[2j+1] [j1+m1]! [j1-m1]! [j2+m2]! [j2-m2]! [j+m]! [j-m]! "
              "[j1+j2-j]! [j+j1-j2]! [j+j2-j1]! / [j1+j2+j+1]!"),
        series=cgc.FactorialSum("-(j1+j2+j+1)", (
            "/ [r]! [j1+j2-j-r]! [j2+m2-r]! [j1-m1-r]! [j-j1-m2+r]! "
            "[j-j2+m1+r]!")))
    spins = [HalfInt(twice=t) for t in range(9)]
    keys = [key for j1 in spins for j2 in spins for key in admissible_keys(j1, j2)]
    apart = 0
    for key in keys:
        racah, *others = (row._compiled(*key.twice) for row in rows)
        assert all(other == racah for other in others), str(key)
        apart += swapped._compiled(*key.twice) != racah
    assert len(keys) == 7809 and apart > 1000


@pytest.mark.parametrize("q", ["0.3", "1.25"])
def test_each_row_has_the_bits_of_the_computation_for_its_tuple(monkeypatch, q):
    # on a sample past spin 3/2, where the Racah sums have several terms:
    # a crosscheck evaluates each distinct compiled tuple once, so
    # routes is the number of distinct tuples over the rows and the
    # special row, every row evaluated alone has the bits of the
    # evaluation of its tuple, and the deviation is the largest
    # difference of the rows evaluated alone
    evaluate, evaluated = cgc._evaluate, []

    def recording(compiled, ctx):
        evaluated.append((compiled, evaluate(compiled, ctx)))
        return evaluated[-1][1]

    monkeypatch.setattr(cgc, "_evaluate", recording)
    ctx = QContext(q=q, precision=50)
    spins = [HalfInt(twice=t) for t in range(9)]
    keys = random.Random(21).sample(
        [key for j1 in spins for j2 in spins for key in admissible_keys(j1, j2)], 500)
    rows = [(ALL_FORMULAS[name], row) for name, row in cgc.CLOSED_FORMS.items()]
    several = shared = 0
    for key in keys:
        evaluated.clear()
        result = compute(key, ctx, mode="crosscheck")
        computed = list(evaluated)
        special = cgc._special_row(key)
        tuples, values = [], []
        for alone, row in rows + [(special_value, special)] * (special is not None):
            compiled = row._compiled(*key.twice)
            if compiled not in tuples:
                tuples.append(compiled)
            [bits] = [value._mpf_ for t, value in computed if t == compiled]
            values.append(alone(key, ctx))
            assert values[-1]._mpf_ == bits, str(key)
        assert result.routes == len(computed) == len(tuples), str(key)
        assert result.value._mpf_ == ALL_FORMULAS["racah"](key, ctx)._mpf_
        pairwise = max(abs(a - b) for a in values for b in values)
        assert result.deviation._mpf_ == pairwise._mpf_, str(key)
        several += computed[0][0][3] is not None
        shared += len(tuples) < len(values)
    assert several > 100 and shared == len(keys)


def test_crosscheck_counts_its_routes():
    # routes is the number of distinct compiled tuples over the closed
    # forms and the special row, counted on every key with 2j1, 2j2 <= 6;
    # the tuples are reduced to what _scale multiplies, so on 161 keys
    # every row is one product; the default mode evaluates one row and
    # counts none
    assert compute(CgcKey(2, 1, 2, -1, 2, 0), CTX).routes is None
    assert compute(CgcKey(1, 0, 1, 0, 3, 0), CTX, mode="crosscheck").routes is None
    spins = [HalfInt(twice=t) for t in range(7)]
    counts = collections.Counter()
    for j1 in spins:
        for j2 in spins:
            for key in admissible_keys(j1, j2):
                rows = [*cgc.CLOSED_FORMS.values(), cgc._special_row(key)]
                tuples = []
                for row in filter(None, rows):
                    compiled = row._compiled(*key.twice)
                    if compiled not in tuples:
                        tuples.append(compiled)
                routes = compute(key, CTX, mode="crosscheck").routes
                assert routes == len(tuples), key
                counts[routes] += 1
    assert counts == {1: 161, 2: 889, 4: 248, 5: 383, 6: 515, 7: 212}


def test_a_row_whose_tuple_differs_is_evaluated_on_its_own(monkeypatch):
    # the rows are compared by what they compute, not by name: with
    # 'racah_binomial' shifted by one power of q on one key, where it
    # shares the 'racah' tuple, a crosscheck evaluates it apart, counts
    # one more route and reports the spread; other keys are unchanged
    key, other = CgcKey(2, 1, 2, -1, 2, 0), CgcKey(2, 0, 2, 0, 2, 0)
    row = cgc.CLOSED_FORMS["racah_binomial"]
    compiled = row._compiled
    assert compiled(*key.twice) == cgc.CLOSED_FORMS["racah"]._compiled(*key.twice)
    before, unchanged = (compute(k, CTX, mode="crosscheck") for k in (key, other))

    def shifted(*twice):
        if twice != key.twice:
            return compiled(*twice)
        phase, power, net, spec = compiled(*twice)
        return phase, power + 2, net, spec

    monkeypatch.setattr(row, "_compiled", shifted)
    after = compute(key, CTX, mode="crosscheck")
    assert after.routes == before.routes + 1
    assert after.value._mpf_ == before.value._mpf_
    # the shifted row is q = 1/2 times the racah value
    assert after.deviation >= abs(before.value) / 2 > 0
    again = compute(other, CTX, mode="crosscheck")
    assert (again.routes, again.deviation) == (unchanged.routes, unchanged.deviation)


def test_rows_that_cancel_to_one_product_share_one_evaluation(monkeypatch):
    # on <1/2 1/2, 1/2 -1/2|1 0> 'racah', '3f2' and the special row
    # ('stretched') name different factorials, which cancel to one
    # product: written out, their net powers differ only at n = 0 and 1,
    # where [n]! = 1, and in a power of [3]! that sums to 0; reduced,
    # the three tuples are equal and one evaluation serves them, so a
    # crosscheck evaluates 2 products, not 4
    key = CgcKey("1/2", "1/2", "1/2", "-1/2", 1, 0)
    rows = [cgc.CLOSED_FORMS["racah"], cgc.CLOSED_FORMS["3f2"], cgc._special_row(key)]
    assert rows[2] is cgc.SPECIAL_VALUES["stretched"]
    written = [_written(row, key) for row in rows]
    assert len({tuple(sorted(named)) for _, _, named, _ in written}) == 3
    racah, *others = (row._compiled(*key.twice) for row in rows)
    assert all(other == racah for other in others)
    evaluate, evaluated = cgc._evaluate, []

    def recording(compiled, ctx):
        evaluated.append(compiled)
        return evaluate(compiled, ctx)

    monkeypatch.setattr(cgc, "_evaluate", recording)
    result = compute(key, CTX, mode="crosscheck")
    assert result.routes == len(evaluated) == 2
    assert evaluated.count(racah) == 1
    assert result.deviation == 0
    alone = {ALL_FORMULAS["racah"](key, CTX)._mpf_, ALL_FORMULAS["3f2"](key, CTX)._mpf_,
             special_value(key, CTX)._mpf_}
    assert alone == {result.value._mpf_}


def test_boosted_sums_are_reals_of_the_calling_context():
    # a sum that cancels past the guard digits reruns in a boosted
    # context; what it returns, and a deviation taken from such values,
    # are still reals of the caller's context at its precision, as are
    # the exact sums at q = 1, which never boost
    ctx = QContext(q=1, precision=50)
    table = racah_table(2, 2, ctx)
    zero = cgc_racah(CgcKey(2, -1, 2, -1, 3, -2), ctx)
    small = QContext(q="0.02", precision=50)
    deviation = compute(CgcKey(1, -1, "3/2", "-3/2", "5/2", "-5/2"), small,
                        mode="crosscheck").deviation
    assert any(key[0] == "precision" for key in small._cache)
    for c, x in ((ctx, zero), (small, deviation),
                 *((ctx, v) for v in table.values())):
        assert x.context is c.mp and x._mpf_[3] <= c.mp.prec


@pytest.mark.parametrize("q", ["1", "1.25", "2"])
def test_crosscheck_agrees_at_q_at_least_one(q):
    ctx = QContext(q=q, precision=50)
    keys = [key for j1 in halfint_range(0, 2) for j2 in halfint_range(0, 2)
            for key in admissible_keys(j1, j2)]
    assert len(keys) == 195
    for key in keys:
        assert compute(key, ctx, mode="crosscheck").deviation < ctx.tol


def test_crosscheck_forms_agree_to_tolerance_at_small_q():
    # the plain finite sums cancel hardest here among the spins <= 3
    ctx = QContext(q="0.3", precision=50)
    result = compute(CgcKey(3, 2, 3, -3, 1, -1), ctx, mode="crosscheck")
    assert result.deviation <= ctx.tol


_INTEGER_FACTORIALS = {}


def _integer_factorials(q, top):
    """Lists of the integers {n} and {n}! at q = u/v, for n = 0..top at
    least: [n] = {n} / (uv)^(n-1) with {n} = (u^2n - v^2n) / (u^2 - v^2),
    the sum of u^2i v^(2n-2-2i) over i < n, so {n} = u^2 {n-1} + v^(2n-2)
    and [n]! = {n}! / (uv)^(n(n-1)/2).  At q = 1, {n} = n."""
    brackets, factorials = _INTEGER_FACTORIALS.setdefault(q, ([0], [1]))
    u2, v2 = q.numerator ** 2, q.denominator ** 2
    for n in range(len(factorials), top + 1):
        brackets.append(u2 * brackets[-1] + v2 ** (n - 1))
        factorials.append(factorials[-1] * brackets[-1])
    return brackets, factorials


def _triangle(n):
    return n * (n - 1) // 2


def _exact(twice, q=Fraction(1)):
    """Sign and square of the coefficient at the doubled labels ``twice``
    and a rational q > 0, exactly; it reads nothing of qcgc.

    C = q^P sqrt(R) S, the Racah sum with 2P = 2(j1 m2 - j2 m1) + n k,
    n = j1+j2-j, k = j1+j2+j+1, R = [2j+1] [n]! [j+j1-j2]! [j+j2-j1]!
    [j1+m1]! [j1-m1]! [j2+m2]! [j2-m2]! [j+m]! [j-m]! / [k]!, and
    S = sum_r (-1)^r q^(-k r) / prod [y]! over y in (r, n-r, j1-m1-r,
    j2+m2-r, j-j2+m1+r, j-j1-m2+r).  Each [y]! is an integer {y}! over a
    power of uv (``_integer_factorials``), so S is an integer z over phi,
    the product of the largest factorial of each argument, times powers
    of u and v, and C^2 is one ratio of integers.  q = 1 is the classical
    coefficient.
    """
    tj1, tm1, tj2, tm2, tj, tm = twice
    n, a, b = (tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    c, d = (tj - tj2 + tm1) // 2, (tj - tj1 - tm2) // 2
    k = (tj1 + tj2 + tj) // 2 + 1
    brackets, f = _integer_factorials(q, k)
    u, v = q.numerator, q.denominator
    rs = range(max(0, -c, -d), min(n, a, b) + 1)
    ys = [(r, n - r, a - r, b - r, c + r, d + r) for r in rs]
    phi = math.prod(f[max(column)] for column in zip(*ys))
    # term r is (-1)^r u^(e - k r) v^(e + k r) / prod {y}!, e the sum of
    # the triangle numbers of its y
    terms = [((-1) ** r, sum(map(_triangle, y)), k * r,
              phi // math.prod(f[x] for x in y)) for r, y in zip(rs, ys)]
    low_u = min(e - kr for _, e, kr, _ in terms)
    low_v = min(e + kr for _, e, kr, _ in terms)
    z = sum(sign * u ** (e - kr - low_u) * v ** (e + kr - low_v) * ratio
            for sign, e, kr, ratio in terms)
    root = (n, (tj + tj1 - tj2) // 2, (tj + tj2 - tj1) // 2, (tj1 + tm1) // 2,
            a, b, (tj2 - tm2) // 2, (tj + tm) // 2, (tj - tm) // 2)
    twice_p = (tj1 * tm2 - tj2 * tm1) // 2 + n * k
    common = _triangle(k) - tj - sum(map(_triangle, root))
    eu, ev = common + twice_p + 2 * low_u, common - twice_p + 2 * low_v
    num = brackets[tj + 1] * math.prod(f[x] for x in root) * z * z
    den = f[k] * phi * phi
    square = Fraction(num * u ** max(eu, 0) * v ** max(ev, 0),
                      den * u ** max(-eu, 0) * v ** max(-ev, 0))
    return (z > 0) - (z < 0), square


def _is_exact(value, twice, q, ctx):
    """The sign of value is right and value^2 is within 10^-precision of
    C^2 relative, against ``_exact``."""
    sign, square = _exact(twice, q)
    with mp.workdps(3 * ctx.dps):
        exact = mpf(square.numerator) / square.denominator
        return ((value > 0) - (value < 0) == sign and abs(mpf(value) ** 2 - exact)
                <= mpf(10) ** -ctx.precision * exact)


# spin pairs (2j1, 2j2) up to j1 = j2 = 8; racah_table is gated on both
# orientations of each
_ORACLE_LADDER = ((1, 1), (2, 1), (3, 2), (5, 3), (4, 4), (16, 2), (8, 4),
                  (6, 6), (10, 5), (7, 7), (12, 6), (16, 6), (16, 16))


def _oracle_sample(count, seed):
    """A seeded sample of admissible keys with 2j1, 2j2 <= 16."""
    rng = random.Random(seed)
    return [rng.choice(admissible_keys(HalfInt(twice=rng.randint(0, 16)),
                                       HalfInt(twice=rng.randint(0, 16))))
            for _ in range(count)]


@pytest.mark.parametrize("q", ["3/10", "1/2", "9/10", "5/4", "3"])
def test_rows_against_the_exact_oracle(q):
    # the racah row, 3f2_rw1 and compute's default value on a seeded
    # sample, and racah_table on a ladder of spin pairs in both
    # orientations: every sign right and every square within
    # 10^-precision of the exact one
    ctx, exact_q = QContext(q=q, precision=50), Fraction(q)
    for key in _oracle_sample(150, seed=2111):
        for value in (cgc_racah(key, ctx), cgc.cgc_3f2_rw1(key, ctx),
                      compute(key, ctx).value):
            assert _is_exact(value, key.twice, exact_q, ctx), (q, str(key))
    for tj1, tj2 in _ORACLE_LADDER + tuple((b, a) for a, b in _ORACLE_LADDER
                                           if a != b):
        table = racah_table(HalfInt(twice=tj1), HalfInt(twice=tj2), ctx)
        for twice, value in table.items():
            assert _is_exact(value, twice, exact_q, ctx), (q, twice)


def test_racah_keeps_precision_at_large_spin():
    ctx = QContext(q=1, precision=30)
    for labels in ((120, 0, 120, 0, 120, 0), (100, 0, 110, 0, 60, 0),
                   (90, 0, 120, 0, 150, 0)):
        sign, square = _exact(tuple(2 * x for x in labels))
        value = cgc_racah(CgcKey(*labels), ctx)
        with mp.workdps(2 * ctx.precision):
            exact = sign * mp.sqrt(mpf(square.numerator) / square.denominator)
            assert abs(value - exact) <= mpf(10) ** -ctx.precision * abs(exact)
    # j1 + j2 + j odd: a parity zero
    assert _exact((240, 0, 238, 0, 400, 0))[1] == 0
    assert cgc_racah(CgcKey(120, 0, 119, 0, 200, 0), ctx) == 0


def _assert_exact_at_q_1(keys, ctx):
    # every closed form against the Fraction reference: 0 on every exact
    # zero, and within 10^-(precision+15) elsewhere
    tol = mpf(10) ** -(ctx.precision + 15)
    zeros = 0
    for key in keys:
        sign, square = _exact(key.twice)
        zeros += square == 0
        with mp.workdps(2 * ctx.precision + 40):
            exact = sign * mp.sqrt(mpf(square.numerator) / square.denominator)
            bound = tol * abs(exact)
            for name, fn in ALL_FORMULAS.items():
                assert abs(fn(key, ctx) - exact) <= bound, (name, key)
    return zeros


def test_closed_forms_are_exact_at_q_1_on_small_spins():
    spins = [HalfInt(twice=t) for t in range(9)]
    keys = [key for j1 in spins for j2 in spins
            for key in admissible_keys(j1, j2)]
    assert _assert_exact_at_q_1(keys, QContext(q=1, precision=50)) == 160


@pytest.mark.parametrize("precision", [50, 100])
def test_closed_forms_are_exact_at_q_1_at_large_spin(precision):
    # spins 20-120, every third key <j1 0, j2 0|j 0>, a parity zero when
    # j1 + j2 + j is odd
    rng = random.Random(13)
    keys = []
    while len(keys) < 24:
        if len(keys) % 3 == 0:
            j1, j2 = rng.randint(20, 120), rng.randint(20, 120)
            keys.append(CgcKey(j1, 0, j2, 0, rng.randint(abs(j1 - j2), j1 + j2), 0))
            continue
        tj1, tj2 = rng.randint(40, 240), rng.randint(40, 240)
        tj = rng.randrange(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        tm, tm1 = rng.randrange(-tj, tj + 1, 2), rng.randrange(-tj1, tj1 + 1, 2)
        if abs(tm - tm1) <= tj2:
            keys.append(CgcKey(*(HalfInt(twice=t) for t in
                                 (tj1, tm1, tj2, tm - tm1, tj, tm))))
    assert _assert_exact_at_q_1(keys, QContext(q=1, precision=precision)) >= 3


def test_sums_at_q_1_skip_the_guard(monkeypatch):
    # at q = 1 no closed form and no table column runs the guarded kernel;
    # at q = 0.9 every one of them still does
    class Guarded(Exception):
        pass

    def guard(terms, ctx):
        raise Guarded

    monkeypatch.setattr(cgc, "_sum_with_guard", guard)
    monkeypatch.setattr(qhyper, "_sum_with_guard", guard)
    keys = admissible_keys(2, "3/2")
    classical, deformed = QContext(q=1, precision=50), QContext(q="0.9", precision=50)
    for fn in ALL_FORMULAS.values():
        for key in keys:
            fn(key, classical)
        with pytest.raises(Guarded):
            fn(CgcKey(2, 0, "3/2", "1/2", "3/2", "1/2"), deformed)
    racah_table(2, "3/2", classical)
    with pytest.raises(Guarded):
        racah_table(2, "3/2", deformed)


def test_stretched_minus_one_is_exact_at_q_1(monkeypatch):
    # both bracket products are integers at q = 1 and the q-power is 1,
    # so the difference is exact and rounded once: no special value runs
    # the guarded kernel or boosts, and the exact zeros are 0
    class Guarded(Exception):
        pass

    def guard(terms, ctx):
        raise Guarded

    monkeypatch.setattr(cgc, "_sum_with_guard", guard)
    monkeypatch.setattr(qhyper, "_sum_with_guard", guard)
    ctx = QContext(q=1, precision=50)
    spins = [HalfInt(twice=t) for t in range(9)]
    keys = [key for j1 in spins for j2 in spins
            for key in admissible_keys(j1, j2)]
    for key in keys:
        special_value(key, ctx)
    assert not any(key[0] == "precision" for key in ctx._cache)
    row = cgc.SPECIAL_VALUES["stretched_minus_one"]
    tol = mpf(10) ** -(ctx.precision + 15)
    checked = zeros = 0
    for key in filter(row.matches, keys):
        value = row.value(key, ctx)
        sign, square = _exact(key.twice)
        if square == 0:
            assert value == 0, key
            zeros += 1
        with mp.workdps(2 * ctx.precision + 40):
            exact = sign * mp.sqrt(mpf(square.numerator) / square.denominator)
            assert abs(value - exact) <= tol * abs(exact), key
        checked += 1
    assert checked > 500 and zeros == 48


@pytest.mark.parametrize("q", ["0.9", "1"])
def test_every_series_row_is_one_terminating_series(monkeypatch, q):
    # a closed form or special value is one product, made in one _times
    # pass, times at most one terminating series: one eval_terminating
    # call per key for a row whose series has two or more terms (its
    # compiled function returns a spec), none for a row whose series has
    # one, and no guarded sum of the row's own
    calls, products = [], []

    def counting(spec, ctx, scale=None):
        calls.append(spec)
        return eval_terminating(spec, ctx, scale)

    def times(*args):
        products.append(args)
        return _times(*args)

    def guard(terms, ctx):
        raise AssertionError("a row ran its own guarded sum")

    monkeypatch.setattr(cgc, "eval_terminating", counting)
    monkeypatch.setattr(cgc, "_times", times)
    monkeypatch.setattr(cgc, "_sum_with_guard", guard)
    ctx = QContext(q=q, precision=50)
    spins = [HalfInt(twice=t) for t in range(5)]
    keys = [key for j1 in spins for j2 in spins for key in admissible_keys(j1, j2)]
    rows = {**cgc.CLOSED_FORMS, **cgc.SPECIAL_VALUES}
    checked = with_series = several = 0
    for name, row in rows.items():
        for key in filter(row.matches, keys):
            calls.clear()
            products.clear()
            row.value(key, ctx)
            summed = row._compiled(*key.twice)[3] is not None
            assert len(products) == 1, (name, str(key))
            assert len(calls) == summed, (name, str(key))
            checked += 1
            with_series += row.series is not None
            several += summed
    assert with_series > 4000 and checked > with_series
    assert 1000 < several < with_series
    # an empty range of r (here j1+j2-j = -1) is an exact 0, with no
    # product and no series
    calls.clear()
    products.clear()
    assert cgc.CLOSED_FORMS["racah"].value(CgcKey(1, 0, 1, 0, 3, 0), ctx) == 0
    assert not calls and not products
    # (-1)^r / ([r]! [j1-r]! [j2-r]!): the signs of its two falling
    # factorials cancel each other and leave the (-1)^r over, so the
    # series read off its factorials would miss a sign in every step
    row = cgc.ClosedForm(power="0", root="[2j+1]", series=cgc.FactorialSum(
        "0", "/ [r]! [j1-r]! [j2-r]!"))
    with pytest.raises(QDomainError, match="alternation"):
        row.value(CgcKey(1, 0, 1, 0, 0, 0), ctx)


def test_every_form_is_accurate_to_spin_3_at_small_q():
    # every closed form and special value at precision 50 against
    # cgc_racah at precision 200, on the 2408 admissible keys with
    # 2j1, 2j2 <= 6 at q = 0.3; the worst, on sum and 3f2, is about
    # 3.5e-55
    ctx, exact = QContext(q="0.3", precision=50), QContext(q="0.3", precision=200)
    spins = [HalfInt(twice=t) for t in range(7)]
    keys = [key for j1 in spins for j2 in spins for key in admissible_keys(j1, j2)]
    assert len(keys) == 2408
    forms = {**ALL_FORMULAS, "special": special_value}
    worst = dict.fromkeys(forms, 0)
    for key in keys:
        reference = cgc_racah(key, exact)
        for name, form in forms.items():
            value = form(key, ctx)
            if value is not None:
                error = abs(value - reference)
                worst[name] = max(worst[name], error / abs(reference)
                                  if reference else error)
    assert all(error <= 1e-54 for error in worst.values()), worst


def test_plain_sums_keep_their_digits_on_a_cancelling_key():
    # the three forms that cancel hardest here were 3.0e-51 off when the
    # pair tables were real brackets and factorials rounded at mp.prec
    key = CgcKey(3, 2, 3, -2, 1, 0)
    ctx, exact = QContext(q="0.3", precision=50), QContext(q="0.3", precision=200)
    reference = cgc_racah(key, exact)
    for form in (cgc_sum, cgc_sum_alt, cgc_3f2):
        assert abs(form(key, ctx) - reference) <= mpf("1e-54") * abs(reference)


@pytest.mark.parametrize("q", ["0.3", "1", "1.25"])
def test_integer_kernel_reads_no_real_bracket_or_factorial(monkeypatch, q):
    # the pair tables are made from pairs alone, so with the real API's
    # brackets and factorials refused, a fresh context still evaluates
    # racah_table, every row, a terminating series and the closed sums
    def refuse(*args):
        raise AssertionError("the integer kernel read the real API")

    for name in ("q_factorial", "_bracket", "_qnum_raw"):
        monkeypatch.setattr(qcore, name, refuse)
    ctx = QContext(q=q, precision=50)
    table = racah_table(2, "3/2", ctx)
    rows = (*cgc.CLOSED_FORMS.values(), *cgc.SPECIAL_VALUES.values())
    for key in admissible_keys(2, "3/2"):
        for row in rows:
            if row.matches(key):
                assert ctx.close(row.value(key, ctx), table[key.twice])
    for sign in (1, -1):
        series = eval_terminating(vandermonde_spec(2, 3, 7, sign), ctx)
        assert ctx.close(series, closed_sum_vandermonde(2, 3, 7, sign, ctx))
        assert ctx.close(series, closed_sum_positive(2, 3, 7, sign, ctx))
        assert ctx.close(eval_terminating(negative_spec(2, 7, 3, sign), ctx),
                         closed_sum_negative(2, 7, 3, sign, ctx))
    assert ctx.close(eval_terminating(dixon_spec(2, 3, 4), ctx),
                     closed_sum_dixon(2, 3, 4, ctx))


@pytest.mark.parametrize("q", ["0.3", "1", "1.25"])
def test_factorials_below_2_are_exactly_one(q):
    # so _scale may drop [0]!, [1]! and their roots and inverses from a
    # product without changing a bit of it
    ctx = QContext(q=q, precision=50)
    one = (1 << (ctx.width - 1), 1 - ctx.width)
    for table in (*factorial_pairs(1, ctx), *root_factorial_pairs(1, ctx)):
        assert table[0] == table[1] == one


@functools.cache
def _code(form):
    return compile(re.sub(r"(\d)([a-z(])", r"\1*\2", form), form, "eval")


def _written(row, key):
    # a brute-force reading of the row's written factorials on key: None
    # for an empty range of r, else (phase, twice_power, named, spec),
    # named the (n, net power of sqrt([n]!)) of every factorial the row
    # and its series' first summand name, in order; QDomainError when a
    # form is not an integer, or naming the least argument when one is
    # negative
    labels = dict(zip(cgc._VARIABLES, (t / 2 for t in key.twice)))

    def at(form, r=0, times=1):
        # times the form at the labels and r, in Python's own float
        # arithmetic, which is exact on these small multiples of 1/4, as
        # an int when it is an integer
        labels["r"] = r
        value = times * eval(_code(form), {}, labels)
        return int(value) if value == int(value) else value

    phase, power, spec = at(row.phase), at(row.power, times=2), None
    named = [(at(form), weight) for forms, weight in zip(row.factorials, (1, -1, 2, -2))
             for form in forms]
    series = row.series
    values = [phase, power, *(n for n, _ in named)]
    if isinstance(series, cgc.HyperSeries):
        values += [at(f, times=2) for f in (*series.numerator, *series.denominator,
                                             series.arg_exponent)]
    elif series is not None:
        values += [at(f) for f in (series.power, *series.num, *series.den)]
    if any(isinstance(x, float) for x in values):
        raise QDomainError("a form is not an integer")
    if isinstance(series, cgc.HyperSeries):
        num = tuple(at(f, times=2) for f in series.numerator)
        if 0 not in num:
            spec = (num, tuple(at(f, times=2) for f in series.denominator),
                    at(series.arg_exponent, times=2))
    elif series is not None:
        # r over the range where every denominator argument is >= 0
        rs = [r for r in range(-12, 13) if all(at(a, r=r) >= 0 for a in series.den)]
        if not rs:
            return None
        lo, hi = rs[0], rs[-1]
        assert -12 < lo and hi < 12  # the scan covers the range
        least = min((at(a, r=r) for a in series.num for r in rs), default=0)
        if least < 0:
            raise QDomainError(f"q_factorial: negative argument {least}")
        e = at(series.power)
        phase, power = phase + lo, power + 2 * e * lo
        named += [(at(a, r=lo), 2) for a in series.num]
        named += [(at(a, r=lo), -2) for a in series.den]
        if lo < hi:
            rising = {a: at(a, r=1) > at(a, r=0) for a in series.num + series.den}
            upper = [2 * at(a, r=lo) + 2 for a in series.num if rising[a]]
            upper += [-2 * at(a, r=lo) for a in series.den if not rising[a]]
            lower = [2 * at(a, r=lo) + 2 for a in series.den if rising[a]]
            lower += [-2 * at(a, r=lo) for a in series.num if not rising[a]]
            lower.remove(2)  # the series' own 1/[k+1]
            spec = (tuple(upper), tuple(lower), 2 * e)
    least = min(n for n, _ in named)
    if least < 0:
        raise QDomainError(f"q_factorial: negative argument {least}")
    return phase, power, named, spec


def test_a_compiled_row_is_its_written_factorials():
    # every row on every admissible key with 2j1, 2j2 <= 6, the special
    # rows off their patterns too: the compiled function returns the
    # brute-force reading's phase mod 2, power and spec, and its net holds
    # the summed powers of the same arguments, reduced to the n > 1 whose
    # power is not 0; where a form is not an integer the row raises
    # QDomainError, and where an argument is negative it names the least
    spins = [HalfInt(twice=t) for t in range(7)]
    keys = [key for j1 in spins for j2 in spins for key in admissible_keys(j1, j2)]
    rows = {**cgc.CLOSED_FORMS, **cgc.SPECIAL_VALUES}
    agreed, raising, summed, matched, negative = 0, set(), 0, set(), 0
    for name, row in rows.items():
        for key in keys:
            try:
                written = _written(row, key)
            except QDomainError as error:
                with pytest.raises(QDomainError) as raised:
                    row.value(key, CTX)
                if str(error).startswith("q_factorial"):
                    assert str(raised.value) == str(error), (name, str(key))
                    negative += 1
                raising.add(name)
                continue
            compiled = row._compiled(*key.twice)
            assert written is not None and compiled is not None, (name, str(key))
            phase, power, net, spec = compiled
            if spec is not None:
                spec = (tuple(spec[0]), tuple(spec[1]), spec[2])
            expected = {}
            for n, weight in written[2]:
                expected[n] = expected.get(n, 0) + weight
            expected = {n: e for n, e in expected.items() if n > 1 and e}
            assert (phase, power, net, spec) == (
                written[0] % 2, written[1], expected, written[3]), (name, str(key))
            agreed += 1
            summed += spec is not None
            if row.matches(key):
                matched.add(name)
    assert agreed > 20000 and summed > 5000 and matched == set(rows) and negative
    # off their patterns: a negative [j1-j2-m]! or [2j1-1]!, or a half-integer [j1]!
    assert raising == {"antistretched", "stretched_minus_one", "all_m_zero"}, raising
    # an empty range of r is None, on a key past the triangle rule
    assert cgc.CLOSED_FORMS["racah"]._compiled(2, 0, 2, 0, 6, 0) is None


def _uncancelled_scale(phase, twice_power, named, c):
    # every factor the row names, as one running product in their order
    top = max((n for n, _ in named), default=0)
    roots, inverse_roots = root_factorial_pairs(top, c)
    fact, inverse = factorial_pairs(top, c)
    tables = {1: roots, -1: inverse_roots, 2: fact, -2: inverse}
    man, exp = _times(*_qpow_pair(twice_power, c),
                      [tables[weight][n] for n, weight in named], c.width)
    return (-man if phase % 2 else man), exp


def test_scale_cancels_factorials_before_it_multiplies(monkeypatch):
    # every row on the 2408 keys with 2j1, 2j2 <= 6 at q = 0.3: the
    # cancelled product is within 64 ulps at ctx.width of the uncancelled
    # one, and _times receives at most a quarter of the factors that the
    # row names, averaged over the spin pairs as the crosscheck
    # benchmark draws its keys (16.7%; 26.6% pooled over the keys, most
    # of which have the larger spins)
    ctx = QContext(q="0.3", precision=50)
    scale, calls, passed = cgc._scale, [], []

    def recording(*args):
        calls.append(scale(*args))
        return calls[-1]

    def times(man, exp, pairs, width):
        passed.append(len(pairs))
        return _times(man, exp, pairs, width)

    monkeypatch.setattr(cgc, "_scale", recording)
    monkeypatch.setattr(cgc, "_times", times)
    monkeypatch.setattr(cgc, "eval_terminating", lambda spec, ctx, scale=None: None)
    rows = (*cgc.CLOSED_FORMS.values(), *cgc.SPECIAL_VALUES.values())
    shares = []
    for j1, j2 in itertools.product([HalfInt(twice=t) for t in range(7)], repeat=2):
        calls.clear()
        passed.clear()
        written = []
        for row in rows:
            for key in filter(row.matches, admissible_keys(j1, j2)):
                row.value(key, ctx)
                written.append(_written(row, key))
        assert len(calls) == len(passed) == len(written)
        for (phase, power, named, _), (man, exp) in zip(written, calls):
            ref_man, ref_exp = _uncancelled_scale(phase, power, named, ctx)
            low = min(exp, ref_exp)
            error = abs((man << (exp - low)) - (ref_man << (ref_exp - low)))
            assert error <= 64 << (ref_exp - low), named
        shares.append(sum(passed) / sum(len(named) for _, _, named, _ in written))
    assert sum(shares) / len(shares) <= 1 / 4


@pytest.mark.parametrize("q", ["0.02", "0.3", "0.9", "1", "1.25", "3", "50"])
def test_rows_with_a_one_term_series_are_their_scale(monkeypatch, q):
    # most series at small spins have one term, and the compiled row
    # then returns no spec: the row's value is its _scale pair rounded
    # once, with no series, bracket table or guard, in a boosted context
    # too
    scale, scales = cgc._scale, []

    def recording(*args):
        scales.append(scale(*args))
        return scales[-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-term row read the kernel")

    monkeypatch.setattr(cgc, "_scale", recording)
    monkeypatch.setattr(cgc, "eval_terminating", forbidden)
    for name in ("eval_terminating", "_sum_with_guard", "qnum_pairs", "_qpow_pair"):
        monkeypatch.setattr(qhyper, name, forbidden)
    plain = QContext(q=q, precision=50)
    spins = [HalfInt(twice=t) for t in range(5)]
    keys = [key for j1 in spins for j2 in spins for key in admissible_keys(j1, j2)]
    rows = {name: row for name, row in {**cgc.CLOSED_FORMS, **cgc.SPECIAL_VALUES}.items()
            if row.series is not None}
    one_term, names = 0, set()
    for ctx in (plain, plain.with_precision(110)):
        for name, row in rows.items():
            for key in filter(row.matches, keys):
                if row._compiled(*key.twice)[3] is not None:
                    continue  # a longer series is not this test's
                value = row.value(key, ctx)
                assert value._mpf_ == ctx.mp.mpf(scales[-1])._mpf_, (name, str(key))
                one_term += 1
                names.add(name)
    assert one_term > 2000
    # the HyperSeries rows, cut off by a zero numerator parameter
    assert {"3f2", "3f2_long_equiv", "stretched_minus_one"} <= names


def test_crosscheck_checks_the_selection_rules_once(monkeypatch):
    # compute checks the key once and then reads the closed-form rows and
    # the special-value row directly, in either mode; the cgc_* wrappers
    # and special_value keep their own checks
    calls = []

    def counting(key):
        calls.append(key)
        return selection_failure(key)

    monkeypatch.setattr(cgc, "selection_failure", counting)
    keys = [*admissible_keys(2, "3/2"), CgcKey(1, 0, 1, 0, 3, 0)]
    with_special = 0
    for key in keys:
        for mode in ("default", "crosscheck"):
            calls.clear()
            compute(key, CTX, mode=mode)
            assert len(calls) == 1, (mode, str(key))
        with_special += special_value(key, CTX) is not None
        assert compute(key, CTX).value._mpf_ == cgc_racah(key, CTX)._mpf_, str(key)
    assert with_special > 10
    calls.clear()
    cgc_racah(keys[0], CTX)
    special_value(keys[0], CTX)
    assert len(calls) == 2


def test_the_default_mode_keeps_the_unitarity_bound(monkeypatch):
    # compute reads the 'racah' row directly, and still raises when its
    # value is past the unitarity bound
    key = CgcKey(1, 0, 1, 0, 2, 0)
    monkeypatch.setattr(cgc.ClosedForm, "value", lambda row, key, ctx: ctx.to_mpf(3))
    with pytest.raises(ArithmeticError, match=re.escape(f"the racah row gives {key}")):
        compute(key, CTX)


@pytest.mark.parametrize("form, key, q", [
    (cgc_sum, CgcKey(11, 5, "23/2", "-17/2", "9/2", "-7/2"), "0.3"),
    (cgc_3f2_long_equiv, CgcKey(10, 0, "1/2", "1/2", "19/2", "1/2"), "0.3"),
    (cgc_3f2_long_equiv, CgcKey(7, -5, 8, -7, 14, -12), "0.5"),
])
def test_a_row_past_the_unitarity_bound_raises(form, key, q):
    # these rows lose every digit here (2.0e148, 8.9e6 and 5.0e35 came
    # back), and a coefficient is at most 1 in size; the racah row, which
    # compute returns, stays right
    ctx = QContext(q=q, precision=50)
    with pytest.raises(ArithmeticError, match=re.escape(str(key))):
        form(key, ctx)
    with pytest.raises(ArithmeticError, match="unitarity"):
        compute(key, ctx, mode="crosscheck")
    ref = QContext(q=q, precision=150)
    value, expected = ref.to_mpf(compute(key, ctx).value), cgc_racah(key, ref)
    assert abs(value - expected) <= ref.to_mpf(10) ** -50 * abs(expected)


def test_the_unitarity_check_starts_at_2():
    key = CgcKey(1, 0, 1, 0, 2, 0)
    for text in ("0", "1", "-1.5", "1.9999999999", "1e-300"):
        assert cgc._unitary(CTX.to_mpf(text), key, "sum") == CTX.to_mpf(text)
    for text in ("2", "-2", "2.5", "1e300"):
        with pytest.raises(ArithmeticError, match=re.escape(f"the sum row gives {key}")):
            cgc._unitary(CTX.to_mpf(text), key, "sum")


@pytest.mark.parametrize("precision", [50, 100])
@pytest.mark.parametrize("q", ["0.9", "0.99"])
def test_racah_keeps_precision_at_spins_100_to_120(q, precision):
    # long alternating sums at ctx.width bits, m1 and m2 within 2 of 0,
    # against a context at precision 200
    rng = random.Random(f"{q}/{precision}")
    keys = []
    for _ in range(8):
        tj1, tj2 = rng.randint(200, 240), rng.randint(200, 240)
        tm1, tm2 = (rng.choice([t for t in range(-4, 5) if (t - spin) % 2 == 0])
                    for spin in (tj1, tj2))
        tj = rng.randrange(max(abs(tj1 - tj2), abs(tm1 + tm2)), tj1 + tj2 + 1, 2)
        keys.append(CgcKey(*(HalfInt(twice=t) for t in
                             (tj1, tm1, tj2, tm2, tj, tm1 + tm2))))
    ctx, ref = QContext(q=q, precision=precision), QContext(q=q, precision=200)
    for key in keys:
        value, expected = ref.to_mpf(cgc_racah(key, ctx)), cgc_racah(key, ref)
        assert abs(value - expected) <= ref.to_mpf(10) ** -precision * abs(expected), key


def test_contexts_at_different_precisions_agree_across_threads():
    # each context carries its own precision, so two threads at 40 and 300
    # digits return exactly what each returns on its own
    keys = admissible_keys(3, 3)

    def run(precision):
        ctx = QContext(q="0.7", precision=precision)
        return [cgc_racah(key, ctx) for key in keys]

    alone = {p: run(p) for p in (40, 300)}
    threaded = {}
    threads = [threading.Thread(target=lambda p=p: threaded.update({p: run(p)}))
               for p in (40, 300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == alone


def test_contexts_at_one_precision_agree_across_threads(monkeypatch):
    # two contexts at 40 digits share one mpmath context; with none made
    # yet, the two threads race to make it, and each still returns exactly
    # what it returns on its own
    keys = admissible_keys(3, 3)

    def run(q):
        ctx = QContext(q=q, precision=40)
        return [cgc_racah(key, ctx)._mpf_ for key in keys]

    alone = {q: run(q) for q in ("0.7", "1.25")}
    monkeypatch.setattr(qcore, "_MP_CONTEXTS", {})
    threaded = {}
    threads = [threading.Thread(target=lambda q=q: threaded.update({q: run(q)}))
               for q in ("0.7", "1.25")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threaded == alone
    assert len(qcore._MP_CONTEXTS) == 2


def test_one_context_shared_across_threads():
    # the context's memo and integer tables grow while two threads read
    # them; each thread must still see exactly the single-threaded values
    keys = admissible_keys(3, 3) + [
        CgcKey(60, 3, 65, -2, 70, 1), CgcKey("121/2", "1/2", 64, 0, "115/2", "1/2"),
        CgcKey("235/2", "3/2", "217/2", "-1/2", 119, 1), CgcKey(90, 0, 80, 0, 150, 0)]
    # one more input, the whole 3 x 3 table, grows the sqrt([n]!) tables
    # through racah_table instead of one key at a time; and one more, a
    # Dixon series and its closed sum, reads the q-power pairs memoised
    # on the context
    def dixon(ctx):
        return (eval_terminating(dixon_spec(6, "5/2", 7), ctx),
                closed_sum_dixon(6, "5/2", 7, ctx))

    alone = QContext(q="0.7", precision=50)
    expected = [cgc_racah(key, alone) for key in keys]
    expected.append(racah_table(3, 3, alone))
    expected.append(dixon(alone))
    shared = QContext(q="0.7", precision=50)
    threaded = {}

    def evaluate(i):
        if i == len(keys):
            return racah_table(3, 3, shared)
        if i == len(keys) + 1:
            return dixon(shared)
        return cgc_racah(keys[i], shared)

    def run(name, order):
        threaded[name] = {i: evaluate(i) for i in order}

    forward = range(len(keys) + 2)
    threads = [threading.Thread(target=run, args=("forward", forward)),
               threading.Thread(target=run, args=("backward", forward[::-1]))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(threaded) == 2
    for values in threaded.values():
        assert [values[i] for i in forward] == expected


@pytest.mark.parametrize("q", ["0.3", "0.9", "1", "1.25", "2"])
def test_racah_table_matches_cgc_racah(q):
    # each column's convolution against the key-by-key Racah sums; at
    # q = 1 both are exact, so a true zero is 0 on both sides and no sum
    # boosts
    ctx = QContext(q=q, precision=50)
    alone = QContext(q=q, precision=50)
    for j1, j2 in (("1/2", "1/2"), (2, 1), ("5/2", "3/2"), (4, 4), (8, 2)):
        keys = admissible_keys(j1, j2)
        table = racah_table(j1, j2, ctx)
        assert list(table) == [key.twice for key in keys]
        for key in keys:
            value, expected = table[key.twice], cgc_racah(key, alone)
            assert abs(value - expected) <= mpf("1e-60") * abs(expected), key
    if q == "1":
        assert not any(key[0] == "precision" for key in ctx._cache)


def _racah_summands(twice):
    """The number of summands of a key's Racah sum: r runs from
    max(0, j2-j-m1, j1-j+m2) to min(j1+j2-j, j1-m1, j2+m2)."""
    tj1, tm1, tj2, tm2, tj, _ = twice
    return 1 + (min(tj1 + tj2 - tj, tj1 - tm1, tj2 + tm2)
                - max(0, tj2 - tj - tm1, tj1 - tj + tm2)) // 2


def test_one_summand_keys_round_as_the_guard_does(monkeypatch):
    # a table key whose Racah sum has one summand skips the guard: its
    # value is that summand truncated and rounded once, bit for bit what
    # the guarded sum of the one term returns
    round_summand, summands = cgc._round_summand, []

    def recorded(man, exp, ctx):
        summands.append((man, exp, round_summand(man, exp, ctx)))
        return summands[-1][2]

    monkeypatch.setattr(cgc, "_round_summand", recorded)
    for q, j1, j2 in (("1.25", 3, "3/2"), ("3", "3/2", 3), ("0.3", 8, 8)):
        ctx = QContext(q=q, precision=50)
        summands.clear()
        table = racah_table(j1, j2, ctx)
        ones = [value._mpf_ for twice, value in table.items()
                if _racah_summands(twice) == 1]
        assert sorted(ones) == sorted(value._mpf_ for *_, value in summands)
        for man, exp, value in summands:
            guarded = _sum_with_guard(lambda c: [(man, exp)], ctx)
            assert value._mpf_ == guarded._mpf_ and value.context is ctx.mp
    assert (len(ones), len(table)) == (1026, 3281)
    # short, negative and zero mantissas, which no table key makes, and
    # one that ties at mp.prec bits only once it is truncated
    top, prec = 1 << ctx.width + 20, ctx.mp.prec
    for man in (0, 1, -3, 1 << ctx.width - 1, 1 - (1 << ctx.width),
                (1 << 2 * ctx.width) - 1, -(1 << 3 * ctx.width),
                top + (top >> prec) + 1):
        assert round_summand(man, -7, ctx)._mpf_ == _sum_with_guard(
            lambda c: [(man, -7)], ctx)._mpf_


def test_a_boosted_table_pass_sums_the_racah_row(monkeypatch):
    # no measured table boosts, so a cancelling pair 2^100 above a key's
    # summands forces every guarded table sum to boost; that pass sums one
    # term, the key's 'racah' row, evaluated once in the boosted context
    guard, row_value = cgc._sum_with_guard, cgc.ClosedForm.value
    racah, evaluated = cgc.CLOSED_FORMS["racah"], []

    def cancelling(terms, ctx):
        def forced(c):
            pairs = list(terms(c))
            if c is ctx:
                top = max(e + m.bit_length() for m, e in pairs) + 100
                pairs += [(1, top), (-1, top)]
            return pairs
        return guard(forced, ctx)

    def recorded(row, key, c):
        if row is racah:
            evaluated.append((key.twice, c.precision))
        return row_value(row, key, c)

    monkeypatch.setattr(cgc, "_sum_with_guard", cancelling)
    monkeypatch.setattr(cgc.ClosedForm, "value", recorded)
    boosted = 0
    for q in ("0.3", "0.9", "1.25", "3"):
        ctx, ref = QContext(q=q, precision=50), QContext(q=q, precision=120)
        for pair in ((2, 1), ("5/2", "3/2"), (4, 4), (8, 2)):
            for j1, j2 in (pair, pair[::-1]):
                evaluated.clear()
                table = racah_table(j1, j2, ctx)
                several = [twice for twice in table if _racah_summands(twice) > 1]
                assert sorted(twice for twice, _ in evaluated) == sorted(several)
                assert all(precision > 50 for _, precision in evaluated)
                boosted += len(several)
                for twice, value in table.items():
                    expected = cgc_racah(CgcKey(twice=twice), ref)
                    assert value.context is ctx.mp
                    assert abs(ref.to_mpf(value) - expected) <= (
                        mpf("1e-60") * abs(expected)), twice
    assert boosted == 3000


@pytest.mark.parametrize("q", ["0.99", "0.9", "1.25"])
def test_racah_keeps_precision_of_long_q_power_chains(q):
    # q^-346 and its successors are built one multiply at a time; a chain
    # that is not renormalised after each step loses a bit per step
    key = CgcKey("235/2", "3/2", "217/2", "-1/2", 119, 1)
    value = cgc_racah(key, QContext(q=q, precision=50))
    reference = cgc_racah(key, QContext(q=q, precision=120))
    assert abs(value - reference) <= mpf("1e-55") * abs(reference)


@pytest.mark.parametrize("q", ["0.02", "10", "50", "0.999", "1.001"])
def test_racah_keeps_precision_at_extreme_q(q):
    # the q-powers reach q^(+-n/2) with n in the thousands here
    rng = random.Random(20)
    keys = []
    while len(keys) < 20:
        j1, j2 = (HalfInt(twice=rng.randrange(81)) for _ in range(2))
        j = rng.choice(halfint_range(abs(j1 - j2), min(j1 + j2, 40)))
        m1 = rng.choice(halfint_range(-j1, j1))
        m = rng.choice(halfint_range(-j, j))
        if abs(m - m1) <= j2:
            keys.append(CgcKey(j1, m1, j2, m - m1, j, m))
    assert max(key.j for key in keys) > 30
    ctx, ref = QContext(q=q, precision=50), QContext(q=q, precision=130)
    for key in keys:
        value, expected = ref.to_mpf(cgc_racah(key, ctx)), cgc_racah(key, ref)
        assert abs(value - expected) <= ref.to_mpf("1e-50") * abs(expected)


@pytest.mark.parametrize("q", ["0.02", "20"])
def test_crosscheck_agrees_at_extreme_q(q):
    ctx = QContext(q=q, precision=50)
    spins = [HalfInt(twice=t) for t in range(4)]
    keys = [key for j1 in spins for j2 in spins for key in admissible_keys(j1, j2)]
    assert len(keys) == 192
    for key in keys:
        assert compute(key, ctx, mode="crosscheck").deviation < ctx.tol


def test_unknown_mode_rejected():
    with pytest.raises(QDomainError):
        compute(CgcKey(1, 0, 1, 0, 2, 0), CTX, mode="bogus")


@given(seed=st.integers(min_value=0, max_value=10**6),
       name=st.sampled_from(sorted(SYMMETRIES)))
@settings(max_examples=60, deadline=None)
def test_symmetries_hold(seed, name):
    key = _random_key(random.Random(seed))
    descriptor = apply_symmetry(key, name)
    ctx_other = CTX.reciprocal() if descriptor.q_flip else CTX
    with CTX.work():
        lhs = cgc_racah(key, CTX)
        rhs = descriptor.prefactor(CTX) * cgc_racah(descriptor.key, ctx_other)
        assert CTX.close(lhs, rhs)


def test_special_values_match_racah():
    with CTX.work():
        matched = 0
        for j1 in halfint_range(0, 2):
            for j2 in halfint_range(0, 2):
                for key in admissible_keys(j1, j2):
                    sv = special_value(key, CTX)
                    if sv is None:
                        continue
                    matched += 1
                    assert CTX.close(sv, cgc_racah(key, CTX))
        assert matched > 100


def test_classical_parity_zero():
    ctx = QContext(q=1, precision=50)
    with ctx.work():
        # odd j1 + j2 + j vanishes at q = 1 for the all-m-zero key
        assert classical_parity_zero_value(HalfInt(1), HalfInt(1),
                                           HalfInt(1), ctx) == 0
        value = classical_parity_zero_value(HalfInt(1), HalfInt(1),
                                            HalfInt(2), ctx)
        assert ctx.close(value, cgc_racah(CgcKey(1, 0, 1, 0, 2, 0), ctx))
        assert ctx.close(value, mp.sqrt(mpf(2) / 3))
        assert ctx.close(classical_parity_zero_value(1, "1", Fraction(2), ctx),
                         value)
    with pytest.raises(ValueError):
        classical_parity_zero_value("1/2", "1/2", 1, ctx)


def test_q_deformed_all_m_zero_does_not_vanish():
    # the parity zero is a q = 1 coincidence; [2] != 2 splits it
    with CTX.work():
        assert abs(cgc_racah(CgcKey(1, 0, 1, 0, 1, 0), CTX)) > mpf("0.01")


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_recurrences_vanish(seed):
    key = _random_key(random.Random(seed))
    if key.j != 0:
        assert recurrence_j_residual(key, CTX) < mpf("1e-30")
    assert recurrence_m_residual(key, CTX) < mpf("1e-30")


def test_j_recurrence_rejects_j_zero():
    with pytest.raises(QDomainError):
        recurrence_j_residual(CgcKey(1, 0, 1, 0, 0, 0), CTX)


def test_j_recurrence_rejects_a_key_that_fails_the_selection_rules():
    # its degree j - m, halved from the doubled labels, would be floored
    for key in (CgcKey("1/2", "1/2", "1/2", "-1/2", 1, "1/2"),
                CgcKey(1, 0, 1, 1, 2, 0)):
        with pytest.raises(QDomainError, match="selection"):
            recurrence_j_residual(key, CTX)


def test_unitarity_small_block():
    # weight m = 0 of 1/2 x 1/2: rows (m1) x columns (j) orthogonal
    with CTX.work():
        h = HalfInt("1/2")
        block = [[cgc_racah(CgcKey(h, m1, h, -m1, j, 0), CTX)
                  for j in (HalfInt(0), HalfInt(1))] for m1 in (h, -h)]
        for a in range(2):
            for b in range(2):
                acc = sum(block[i][a] * block[i][b] for i in range(2))
                assert CTX.close(acc, 1 if a == b else 0)


def test_key_string_form():
    key = CgcKey("1/2", "-1/2", 1, 0, "3/2", "-1/2")
    assert str(key) == "<1/2 -1/2, 1 0|3/2 -1/2>"
