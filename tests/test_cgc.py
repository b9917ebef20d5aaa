"""Unit tests for the Clebsch-Gordan closed forms and their structure."""

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


def test_rows_that_are_one_computation():
    # after _scale cancels their factorials, 'racah', 'racah_binomial' and
    # '3f2_rw2' are one product and one series as polynomials in the
    # labels, and every other closed form is a computation of its own;
    # an edit to a row's forms that breaks or makes an equivalence fails
    # here
    groups = {}
    for name, row in cgc.CLOSED_FORMS.items():
        groups.setdefault(row.computation, set()).add(name)
    assert sorted(map(sorted, groups.values())) == [
        ["3f2"], ["3f2_long_equiv"], ["3f2_rw1"], ["3f2_rw2", "racah", "racah_binomial"],
        ["sum"], ["sum_alt"]]
    assert cgc._computations() == {
        "racah": ("racah", "3f2_rw2", "racah_binomial"), "sum": ("sum",),
        "sum_alt": ("sum_alt",), "3f2": ("3f2",), "3f2_rw1": ("3f2_rw1",),
        "3f2_long_equiv": ("3f2_long_equiv",)}
    # the forms compare as polynomials, not as text, and the series'
    # parameters in their order
    racah = cgc.CLOSED_FORMS["racah"]
    rewritten = cgc.ClosedForm(
        power="m2*j1 - m1*j2 + (j+j2+j1+1)*(j2+j1-j)/2",
        root=("[j-m]! [j+m]! [2j+1] [j1-m1]! [m1+j1]! [j2+m2]! [j2-m2]! "
              "[j1+j2-j]! [j1-j2+j]! [j+j2-j1]! / [1+j+j1+j2]!"),
        series=cgc.FactorialSum("-(j1+j2+j+1)", cgc._RACAH_TERMS))
    swapped = cgc.ClosedForm(
        power=cgc._QUADRATIC_PLUS,
        root=("[2j+1] [j1+m1]! [j1-m1]! [j2+m2]! [j2-m2]! [j+m]! [j-m]! "
              "[j1+j2-j]! [j+j1-j2]! [j+j2-j1]! / [j1+j2+j+1]!"),
        series=cgc.FactorialSum("-(j1+j2+j+1)", (
            "/ [r]! [j1+j2-j-r]! [j2+m2-r]! [j1-m1-r]! [j-j1-m2+r]! "
            "[j-j2+m1+r]!")))
    assert rewritten.computation == racah.computation
    assert swapped.computation != racah.computation


@pytest.mark.parametrize("q", ["0.3", "1.25"])
def test_one_computation_gives_the_same_bits(monkeypatch, q):
    # on a sample past spin 3/2, where the Racah sums have several terms:
    # every row of a computation, evaluated alone, has the bits of the
    # row compute evaluates for it, and its _scale pair too, and the
    # deviation is the largest difference of the rows evaluated alone,
    # the special value included
    scale, pairs = cgc._scale, []

    def recording(*args):
        pairs.append(scale(*args))
        return pairs[-1]

    monkeypatch.setattr(cgc, "_scale", recording)
    ctx = QContext(q=q, precision=50)
    spins = [HalfInt(twice=t) for t in range(9)]
    keys = random.Random(21).sample(
        [key for j1 in spins for j2 in spins for key in admissible_keys(j1, j2)], 500)
    racah = cgc.CLOSED_FORMS["racah"]
    several = 0
    for key in keys:
        result = compute(key, ctx, mode="crosscheck")
        values = []
        for first, names in cgc._computations().items():
            pairs.clear()
            computed = cgc.CLOSED_FORMS[first].value(key, ctx)
            for name in names:
                alone = ALL_FORMULAS[name](key, ctx)
                assert alone._mpf_ == computed._mpf_, (name, str(key))
                assert pairs[-1] == pairs[0], (name, str(key))
                values.append(alone)
        assert result.value._mpf_ == values[0]._mpf_
        sv = special_value(key, ctx)
        if sv is not None:
            values.append(sv)
        pairwise = max(abs(a - b) for a in values for b in values)
        assert result.deviation._mpf_ == pairwise._mpf_, str(key)
        spec = racah.series.split(racah._labels(*key.twice)[-1])[0]
        several += qhyper._live_range(spec)[0] > 0
    assert several > 100


def test_crosscheck_counts_its_routes():
    # six computations among the closed forms, and the special value when
    # one applies, on every key with 2j1, 2j2 <= 6; the default mode
    # evaluates one row and counts none
    plain, stretched = CgcKey(2, 1, 2, -1, 2, 0), CgcKey(1, 0, 1, 0, 2, 0)
    assert special_value(plain, CTX) is None
    assert special_value(stretched, CTX) is not None
    assert compute(plain, CTX, mode="crosscheck").routes == 6
    assert compute(stretched, CTX, mode="crosscheck").routes == 7
    assert compute(plain, CTX).routes is None
    assert compute(CgcKey(1, 0, 1, 0, 3, 0), CTX, mode="crosscheck").routes is None
    spins = [HalfInt(twice=t) for t in range(7)]
    counts = {6: 0, 7: 0}
    for j1 in spins:
        for j2 in spins:
            for key in admissible_keys(j1, j2):
                routes = compute(key, CTX, mode="crosscheck").routes
                assert routes == 6 + (special_value(key, CTX) is not None), key
                counts[routes] += 1
    assert counts == {6: 364, 7: 2044}


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
    # call per key for a row with a series, and no guarded sum of the
    # row's own
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
    checked = with_series = 0
    for name, row in rows.items():
        for key in filter(row.matches, keys):
            calls.clear()
            products.clear()
            row.value(key, ctx)
            assert len(products) == 1, (name, str(key))
            assert len(calls) == (row.series is not None), (name, str(key))
            checked += 1
            with_series += row.series is not None
    assert with_series > 4000 and checked > with_series
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


def _uncancelled_scale(phase, twice_power, root_ups, root_downs, ups, downs, c):
    # every factor the four lists name, as one running product
    roots, inverse_roots = root_factorial_pairs(max((*root_ups, *root_downs), default=0), c)
    fact, inverse = factorial_pairs(max((*ups, *downs), default=0), c)
    man, exp = _times(*_qpow_pair(twice_power, c), [
        *map(roots.__getitem__, root_ups), *map(inverse_roots.__getitem__, root_downs),
        *map(fact.__getitem__, ups), *map(inverse.__getitem__, downs)], c.width)
    return (-man if phase % 2 else man), exp


def test_scale_cancels_factorials_before_it_multiplies(monkeypatch):
    # every row on the 2408 keys with 2j1, 2j2 <= 6 at q = 0.3: the
    # cancelled product is within 64 ulps at ctx.width of the uncancelled
    # one, and _times receives at most a quarter of the factors that the
    # index lists name, averaged over the spin pairs as the crosscheck
    # benchmark draws its keys (16.7%; 26.6% pooled over the keys, most
    # of which have the larger spins)
    ctx = QContext(q="0.3", precision=50)
    scale, calls, passed = cgc._scale, [], []

    def recording(*args):
        calls.append((args, scale(*args)))
        return calls[-1][1]

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
        for row in rows:
            for key in filter(row.matches, admissible_keys(j1, j2)):
                row.value(key, ctx)
        assert len(calls) == len(passed)
        for args, (man, exp) in calls:
            ref_man, ref_exp = _uncancelled_scale(*args)
            low = min(exp, ref_exp)
            error = abs((man << (exp - low)) - (ref_man << (ref_exp - low)))
            assert error <= 64 << (ref_exp - low), args
        shares.append(sum(passed) / sum(sum(map(len, args[2:6])) for args, _ in calls))
    assert sum(shares) / len(shares) <= 1 / 4


@pytest.mark.parametrize("q", ["0.3", "0.9", "1", "1.25"])
def test_rows_with_a_one_term_series_are_their_scale(monkeypatch, q):
    # most series at small spins have cutoff 0: the row's value is then
    # its _scale pair rounded once, with no bracket table and no guard
    scale, scales, one_term = cgc._scale, [], []

    def recording(*args):
        scales.append(scale(*args))
        return scales[-1]

    def series(spec, ctx, scale=None):
        if qhyper._live_range(spec)[0]:
            return None  # a longer series is not this test's
        one_term.append(scale)
        return eval_terminating(spec, ctx, scale)

    def forbidden(*args):
        raise AssertionError("a one-term series read the kernel")

    monkeypatch.setattr(cgc, "_scale", recording)
    monkeypatch.setattr(cgc, "eval_terminating", series)
    for name in ("_sum_with_guard", "qnum_pairs", "_qpow_pair"):
        monkeypatch.setattr(qhyper, name, forbidden)
    ctx = QContext(q=q, precision=50)
    spins = [HalfInt(twice=t) for t in range(5)]
    keys = [key for j1 in spins for j2 in spins for key in admissible_keys(j1, j2)]
    rows = [row for row in (*cgc.CLOSED_FORMS.values(), *cgc.SPECIAL_VALUES.values())
            if row.series is not None]
    for row in rows:
        for key in filter(row.matches, keys):
            count = len(one_term)
            value = row.value(key, ctx)
            if len(one_term) > count:
                assert one_term[-1] == scales[-1]
                assert value == ctx.mp.mpf(scales[-1]), str(key)
    assert len(one_term) > 1000


def test_crosscheck_checks_the_selection_rules_once(monkeypatch):
    # compute checks the key once and then reads the closed-form rows and
    # the special-value row directly; the cgc_* wrappers and
    # special_value keep their own checks
    calls = []

    def counting(key):
        calls.append(key)
        return selection_failure(key)

    monkeypatch.setattr(cgc, "selection_failure", counting)
    keys = [*admissible_keys(2, "3/2"), CgcKey(1, 0, 1, 0, 3, 0)]
    with_special = 0
    for key in keys:
        calls.clear()
        compute(key, CTX, mode="crosscheck")
        assert len(calls) == 1, str(key)
        with_special += special_value(key, CTX) is not None
    assert with_special > 10
    calls.clear()
    cgc_racah(keys[0], CTX)
    special_value(keys[0], CTX)
    assert len(calls) == 2


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


def test_one_summand_keys_round_as_the_guard_does(monkeypatch):
    # a table key whose Racah sum has one summand skips the guard: its
    # value is that summand truncated and rounded once, bit for bit what
    # the guarded sum of the one term returns
    round_summand, summands = cgc._round_summand, []

    def recorded(man, exp, ctx):
        summands.append((man, exp, round_summand(man, exp, ctx)))
        return summands[-1][2]

    def one_summand(twice):
        # r runs from max(0, j2-j-m1, j1-j+m2) to min(j1+j2-j, j1-m1, j2+m2)
        tj1, tm1, tj2, tm2, tj, _ = twice
        return max(0, tj2 - tj - tm1, tj1 - tj + tm2) == min(
            tj1 + tj2 - tj, tj1 - tm1, tj2 + tm2)

    monkeypatch.setattr(cgc, "_round_summand", recorded)
    for q, j1, j2 in (("1.25", 3, "3/2"), ("3", "3/2", 3), ("0.3", 8, 8)):
        ctx = QContext(q=q, precision=50)
        summands.clear()
        table = racah_table(j1, j2, ctx)
        ones = [value._mpf_ for twice, value in table.items() if one_summand(twice)]
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
