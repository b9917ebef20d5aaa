"""Unit tests for the symmetric q-number primitives."""

import operator
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qcgc import (
    HalfInt,
    QContext,
    QDomainError,
    halfint,
    q_binomial,
    q_factorial,
    q_gamma_classical,
    q_gamma_tilde,
    q_pochhammer,
    qnum,
)
from qcgc import qcore
from qcgc.cgc import racah_table
from qcgc.halfint import doubled
from qcgc.qcore import _gamma_base, factorial_pairs, qnum_pairs, root_factorial_pairs

CTX = QContext(q="0.5", precision=50)

half_ints = st.integers(min_value=-16, max_value=16).map(
    lambda t: HalfInt(Fraction(t, 2)))


def test_qnum_two_is_q_plus_qinv():
    with CTX.work():
        assert CTX.close(qnum(HalfInt(2), CTX), CTX.q + CTX.qinv)


def test_qnum_one_and_zero():
    with CTX.work():
        assert qnum(HalfInt(1), CTX) == 1
        assert qnum(HalfInt(0), CTX) == 0


def test_qnum_classical_branch_returns_argument():
    ctx = QContext(q=1, precision=50)
    with ctx.work():
        assert qnum(HalfInt("7/2"), ctx) == mpf(7) / 2


@given(x=half_ints)
@settings(max_examples=60, deadline=None)
def test_qnum_is_odd(x):
    with CTX.work():
        assert CTX.close(qnum(-x, CTX), -qnum(x, CTX))


@given(x=half_ints)
@settings(max_examples=60, deadline=None)
def test_qnum_invariant_under_base_inversion(x):
    flip = CTX.reciprocal()
    with CTX.work():
        assert CTX.close(qnum(x, CTX), qnum(x, flip))


@given(x=half_ints, y=half_ints)
@settings(max_examples=60, deadline=None)
def test_qnum_product_difference_identity(x, y):
    # [x][y] = [(x+y)/2]^2 - [(x-y)/2]^2 drives the Casimir eigenvalue
    with CTX.work():
        lhs = qnum(x, CTX) * qnum(y, CTX)
        half = Fraction(1, 2)
        rhs = (qnum((x + y).as_fraction() * half, CTX) ** 2
               - qnum((x - y).as_fraction() * half, CTX) ** 2)
        assert CTX.close(lhs, rhs)


def test_q_factorial_recursion_and_base():
    with CTX.work():
        assert q_factorial(0, CTX) == 1
        for n in range(1, 8):
            assert CTX.close(q_factorial(n, CTX),
                             q_factorial(n - 1, CTX) * qnum(HalfInt(n), CTX))


def test_q_factorial_negative_raises():
    with pytest.raises(QDomainError):
        q_factorial(-1, CTX)


def test_q_pochhammer_matches_factorial_ratio():
    with CTX.work():
        for a in range(1, 5):
            for n in range(0, 5):
                expected = q_factorial(a + n - 1, CTX) / q_factorial(a - 1, CTX)
                assert CTX.close(q_pochhammer(HalfInt(a), n, CTX), expected)


def test_q_binomial_pascal_rule():
    # [n,k] = q^-k [n-1,k] + q^(n-k) [n-1,k-1] (symmetric-bracket Pascal)
    with CTX.work():
        for n in range(1, 9):
            for k in range(0, n + 1):
                lhs = q_binomial(n, k, CTX)
                rhs = (CTX.qpow(-k) * q_binomial(n - 1, k, CTX)
                       + CTX.qpow(n - k) * q_binomial(n - 1, k - 1, CTX))
                assert CTX.close(lhs, rhs)


def test_q_binomial_outside_range_is_zero():
    assert q_binomial(3, 5, CTX) == 0
    assert q_binomial(3, -1, CTX) == 0


def test_q_gamma_tilde_integer_shortcut():
    with CTX.work():
        for n in range(1, 7):
            assert CTX.close(q_gamma_tilde(HalfInt(n + 1), CTX),
                             q_factorial(n, CTX))


def test_q_gamma_tilde_functional_equation_at_half_integers():
    # Gamma_tilde(s+1) = [s] Gamma_tilde(s)
    with CTX.work():
        for twice in (1, 3, 5, 7):
            s = HalfInt(Fraction(twice, 2))
            assert CTX.close(q_gamma_tilde(s + 1, CTX),
                             qnum(s, CTX) * q_gamma_tilde(s, CTX))


@pytest.mark.parametrize("q", ["0.5", "0.9", "1.25"])
def test_q_gamma_tilde_at_half_integers_matches_the_products(q):
    # Gamma_tilde(1/2) times a finite Pochhammer against the truncated
    # infinite products evaluated afresh at 120 digits
    ctx = QContext(q=q, precision=50)
    ref = QContext(q=q, precision=120)
    base = ref.q ** 2
    for twice in (-3, -1, 1, 3, 39):
        s = HalfInt(twice=twice)
        sv = ref.to_mpf(s)
        expected = base ** (-(sv - 1) * (sv - 2) / 4) * _gamma_base(sv, base, ref)
        value = ref.to_mpf(q_gamma_tilde(s, ctx))
        assert abs(value - expected) <= ref.to_mpf("1e-50") * abs(expected)


@pytest.mark.parametrize("q", ["0.5", "0.9", "1.25", "1"])
def test_q_gamma_classical_is_a_q_factorial_at_base_q_squared(q):
    # Gamma_{q^2}(n+1) = [n]_{q^2}! with [n]_{q^2} = q^(n-1) [n], through
    # the truncated products, the reciprocal base when q > 1 and mpmath's
    # gamma at q = 1
    ctx = QContext(q=q, precision=50)
    for n in range(8):
        expected = ctx.qpow(n * (n - 1) // 2) * q_factorial(n, ctx)
        assert abs(q_gamma_classical(n + 1, ctx) - expected) <= ctx.tol * expected


@pytest.mark.parametrize("q", ["0.5", "0.9", "1.25", "1"])
def test_q_gamma_tilde_functional_equation_off_the_lattice(q):
    # Gamma_tilde(x+1) = [x] Gamma_tilde(x) at arguments that are not
    # half-integers, where the truncated products are evaluated directly
    ctx = QContext(q=q, precision=50)
    for text in ("0.3", "1.7", "2.25"):
        x = ctx.to_mpf(text)
        expected = qnum(x, ctx) * q_gamma_tilde(x, ctx)
        assert abs(q_gamma_tilde(x + 1, ctx) - expected) <= ctx.tol * expected


@pytest.mark.parametrize("q", ["0.02", "0.3", "0.9", "1.25", "50"])
def test_qpow_on_the_half_integer_lattice_matches_the_real_power(q):
    # the memoised square-and-multiply pair against a real power at 120
    # digits, for each way of writing the exponent
    ctx = QContext(q=q, precision=50)
    ref = QContext(q=q, precision=120)
    bound = ref.to_mpf(10) ** -ctx.precision
    for twice in range(-81, 82):
        expected = ref.q ** ref.to_mpf(Fraction(twice, 2))
        exponents = [HalfInt(twice=twice), Fraction(twice, 2)]
        if twice % 2 == 0:
            exponents.append(twice // 2)
        for e in exponents:
            value = ref.to_mpf(ctx.qpow(e))
            assert abs(value - expected) <= bound * expected
    # a quarter-integer exponent still takes the real power, unmemoised
    kept = set(ctx._cache)
    assert ctx.qpow(Fraction(1, 4)) == ctx.q ** ctx.to_mpf(Fraction(1, 4))
    assert set(ctx._cache) == kept


@pytest.mark.parametrize("q", ["0.3", "1", "1.25"])
def test_a_lattice_value_gives_the_same_bits_however_written(q):
    # an int, a Fraction and a HalfInt of one half-integer take one path
    # through qnum, qpow and q_pochhammer; each spelling runs in a context
    # of its own, so none reads a value that another put in the memo
    spellings = {"HalfInt": lambda t: HalfInt(twice=t),
                 "Fraction": lambda t: Fraction(t, 2), "int": lambda t: t // 2}
    bits = {}
    for name, spell in spellings.items():
        ctx = QContext(q=q, precision=50)
        for twice in range(-9, 10):
            if name != "int" or twice % 2 == 0:
                x = spell(twice)
                values = (qnum(x, ctx), ctx.qpow(x), q_pochhammer(x, 3, ctx))
                bits.setdefault(twice, set()).add(tuple(v._mpf_ for v in values))
    assert all(len(seen) == 1 for seen in bits.values())


def test_doubled_reads_every_label_without_a_halfint(monkeypatch):
    built = []
    monkeypatch.setattr(HalfInt, "__init__", lambda self, *a, **k: built.append(a))
    labels = (3, "3/2", " -5/2 ", Fraction(-7, 2), Fraction(4, 2), 1.5, True)
    assert [doubled(x) for x in labels] == [6, 3, -5, -7, 4, 3, 2]
    with pytest.raises(ValueError):
        doubled(Fraction(1, 3))
    with pytest.raises(ValueError):
        doubled(0.25)
    with pytest.raises(TypeError):
        doubled(None)
    assert built == []


@pytest.mark.parametrize("q", ["0.02", "0.9", "1", "1.25", "50"])
def test_root_factorial_pairs_match_the_square_roots(q):
    # each root and inverse root against the square root, at 200 digits,
    # of the [n]! pair it is taken from, within the rounding of a pair;
    # and squared against the product [1][2]...[n] at 200 digits, within
    # the precision that the [n]! pairs are rounded to
    ctx = QContext(q=q, precision=50)
    ref = QContext(q=q, precision=200)
    mpf_ = ref.mp.mpf
    roots, inverse_roots = root_factorial_pairs(200, ctx)
    factorials = factorial_pairs(200, ctx)[0]
    bound = mpf_(2) ** -(ctx.width - 4)
    digits = mpf_(10) ** -ctx.precision
    product = mpf_(1)
    for n in range(201):
        if n:
            product *= qnum(HalfInt(n), ref)
        root = ref.mp.sqrt(mpf_(factorials[n]))
        assert abs(mpf_(roots[n]) - root) <= bound * root
        assert abs(mpf_(inverse_roots[n]) * root - 1) <= bound
        assert abs(mpf_(roots[n]) ** 2 / product - 1) <= digits


@pytest.mark.parametrize("q", ["0.3", "0.99", "0.999999", "1.25", "2"])
def test_pair_tables_are_within_their_stated_bounds(q):
    # a sample of [x] and 1/[x] over 2x <= 722 and of [n]! and 1/[n]!
    # over n <= 361, the reach of spins up to 120, at precision 50 against
    # the real API at precision 150, in units u = 2^(1-width) relative:
    # 5(|x| - 1) u at an integer x, (5|x| + 5) u at a half-integer x and
    # 5n^2/2 u, each 2u more for an inverse, as the qnum_pairs and
    # factorial_pairs docstrings state
    ctx = QContext(q=q, precision=50)
    ref = QContext(q=q, precision=150)
    mpf_ = ref.mp.mpf
    u = mpf_(2) ** (1 - ctx.width)
    values, inverses = qnum_pairs(722, ctx)
    for t in [*range(1, 722, 19), 722]:
        exact = qnum(HalfInt(twice=t), ref)
        bound = (mpf_(5 * t) / 2 + (5 if t % 2 else -5)) * u
        assert abs(mpf_(values[t]) / exact - 1) <= bound, t
        assert abs(mpf_(inverses[t]) * exact - 1) <= bound + 2 * u, t
        assert values[-t] == (-values[t][0], values[t][1])
    factorials, inverse_factorials = factorial_pairs(361, ctx)
    for n in [*range(0, 361, 10), 361]:
        exact = q_factorial(n, ref)
        bound = mpf_(5 * n * n) / 2 * u
        assert abs(mpf_(factorials[n]) / exact - 1) <= bound, n
        assert abs(mpf_(inverse_factorials[n]) * exact - 1) <= bound + 2 * u, n


def _filled_tables(ctx):
    # [x] and 1/[x] over 2x = -722..722, and [n]!, sqrt([n]!) and their
    # inverses over n = 0..361
    values, inverses = qnum_pairs(722, ctx)
    brackets = [(values[t], inverses[t]) for t in range(-722, 723)]
    return brackets, [table[:362] for table in (*factorial_pairs(361, ctx),
                                                *root_factorial_pairs(361, ctx))]


@pytest.mark.parametrize("q", ["0.3", "1", "1.25"])
def test_pair_tables_do_not_depend_on_the_order_of_growth(q):
    # growth in shuffled steps, and from four threads at once that switch
    # often, against a one-shot fill
    expected = _filled_tables(QContext(q=q, precision=50))
    steps = [*((qnum_pairs, t) for t in range(0, 723, 37)),
             *((grow, n) for grow in (factorial_pairs, root_factorial_pairs)
               for n in range(0, 362, 19))]
    rng = random.Random(722)
    orders = [rng.sample(steps, len(steps)) for _ in range(4)]
    for order in orders:
        ctx = QContext(q=q, precision=50)
        for grow, n in order:
            grow(n, ctx)
        assert _filled_tables(ctx) == expected
    ctx = QContext(q=q, precision=50)
    threads = [threading.Thread(target=lambda order=order: [
        grow(n, ctx) for grow, n in order]) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert _filled_tables(ctx) == expected


def test_a_cold_table_steps_the_bracket_chain_once_per_entry(monkeypatch):
    # racah_table(8, 8) reads [x] up to 2x = 66, growing the chain many
    # times, and each growth steps only past the entries already held
    add, steps = qcore._add, []

    def step(*args):
        steps.append(args)
        return add(*args)

    ctx = QContext(q="0.3", precision=50)
    monkeypatch.setattr(qcore, "_add", step)
    racah_table(8, 8, ctx)
    reach = len(ctx._brackets[0]) // 2
    assert reach == 66
    assert len(steps) == reach - 2  # [1/2] and [1] come with the context


def test_q_gamma_pole_raises():
    with pytest.raises(QDomainError):
        q_gamma_tilde(HalfInt(0), CTX)
    with pytest.raises(QDomainError):
        q_gamma_classical(HalfInt(-2), CTX)


def test_context_rejects_low_precision_and_bad_q():
    with pytest.raises(QDomainError):
        QContext(q="0.5", precision=10)
    with pytest.raises(QDomainError):
        QContext(q="-1", precision=50)


def test_reciprocal_context_round_trip():
    flip = CTX.reciprocal()
    back = flip.reciprocal()
    with CTX.work():
        assert flip.q == CTX.qinv
        assert back.q == CTX.q


def test_reciprocal_context_is_kept_on_its_parent():
    ctx = QContext(q="0.7", precision=50)
    assert ctx.reciprocal() is ctx.reciprocal()


def test_with_precision_keeps_exact_base():
    boosted = CTX.with_precision(90)
    with boosted.work():
        assert boosted.q == mpf("0.5")
        assert boosted.dps > CTX.dps


def test_contexts_at_one_precision_share_an_mpmath_context():
    ctx = QContext(q="0.3", precision=50)
    assert ctx.mp is CTX.mp is QContext(q="2", precision=50).mp
    assert ctx.reciprocal().mp is ctx.mp
    assert ctx.with_precision(60).mp is not ctx.mp
    assert QContext(q="0.3", precision=60).mp is ctx.with_precision(60).mp
    assert ctx.mp.dps == ctx.dps


def test_contexts_at_a_precision_seen_make_no_mpmath_context(monkeypatch):
    monkeypatch.setattr(qcore, "_MP_CONTEXTS", {})
    QContext(q="0.3", precision=50)
    made, original = [], mpmath.MPContext

    def counted():
        made.append(1)
        return original()

    monkeypatch.setattr(mpmath, "MPContext", counted)
    for k in range(10):
        QContext(q=f"0.{k + 1}", precision=50).reciprocal()
    assert made == []
    QContext(q="0.3", precision=60)
    assert len(made) == 2  # one at 80 digits and one at its pairs' width


@pytest.mark.parametrize("q", ["0.3", 2, Fraction(3, 7), 0.3, HalfInt("3/2"),
                               "mpf"])
def test_q_is_parsed_at_the_pair_width(q):
    # the pair of q is q parsed at ctx.width bits, not rounded to mp.prec
    # first, whatever type q comes as
    private = mpmath.MPContext()
    if q == "mpf":
        with mp.workdps(200):
            q = mpf(1) / 3
    ctx = QContext(q=q, precision=50)
    private.prec = ctx.width
    if isinstance(q, HalfInt):
        value = private.mpf(q.twice) / 2
    elif isinstance(q, Fraction):
        value = private.mpf(q.numerator) / q.denominator
    else:
        value = private.mpf(str(q) if isinstance(q, float) else q)
    sign, man, exp, bc = value._mpf_
    assert not sign
    assert ctx._unit_powers[0] == (man << ctx.width - bc, exp - ctx.width + bc)


def test_classical_limit_of_qnum():
    ctx = QContext(q="0.999999", precision=50)
    with ctx.work():
        x = Fraction(-5)
        while x <= 5:
            assert abs(qnum(HalfInt(x), ctx) - ctx.to_mpf(x)) < mpf("1e-6")
            x += Fraction(1, 2)


def test_halfint_compares_and_hashes_like_its_value():
    values = [Fraction(t, 2) for t in range(-7, 8)]
    for a in values:
        x = HalfInt(a)
        assert hash(x) == hash(a)
        for b in values:
            others = [HalfInt(b), b] + ([int(b)] if b.denominator == 1 else [])
            for y in others:
                assert (x < y, x <= y, x > y, x >= y, x == y) == (
                    a < b, a <= b, a > b, a >= b, a == b)
    # odd numerators around the modulus of Python's numeric hash
    for t in (2**61 - 1, 2**61 + 1, 2**62 + 1, -(2**64) - 1, 10**30 + 1):
        assert hash(HalfInt(twice=t)) == hash(Fraction(t, 2))
    assert hash(HalfInt(-1)) == hash(-1)
    assert {HalfInt(3): "x"}[3] == "x"
    assert {Fraction(-5, 2): "y"}[HalfInt("-5/2")] == "y"


def test_halfint_compares_with_numbers_only():
    # a label equal to a string would have to hash like it; it compares
    # with HalfInt, int, Fraction and float, and its builders parse strings
    half = HalfInt("1/2")
    assert half != "1/2" and not half == "1/2"
    assert {half: 1}.get("1/2") is None
    assert "1/2" not in {half}
    assert half == 0.5 and HalfInt(2) == 2.0 and half != 1.5
    for order in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            order(half, "1")
        with pytest.raises(TypeError):
            order("1", half)
    assert HalfInt("3/2").twice == halfint("3/2").twice == doubled("3/2") == 3


def test_halfint_arithmetic_takes_any_label(monkeypatch):
    half = HalfInt("1/2")
    for value in (1 - half, HalfInt(1) + "1/2", Fraction(1, 2) + HalfInt(1),
                  2.5 - half, "1/2" - HalfInt(-1), HalfInt(2) - 1.5):
        assert type(value) is HalfInt
    assert 1 - half == half and 2.5 - half == 2 and "1/2" - HalfInt(-1) == 1.5
    assert HalfInt(1) + "1/2" == Fraction(1, 2) + HalfInt(1) == Fraction(3, 2)
    assert HalfInt(2) - 1.5 == half
    # an int operand is doubled in place: the sum is the one HalfInt built
    created = []
    build = HalfInt.__init__

    def counting(self, *args, **kwargs):
        created.append(args)
        build(self, *args, **kwargs)

    one = HalfInt(1)
    monkeypatch.setattr(HalfInt, "__init__", counting)
    total = one + 1
    monkeypatch.undo()
    assert total == 2 and len(created) == 1


def test_halfint_parsing():
    assert halfint("3/2").twice == 3
    assert halfint(2).twice == 4
    assert halfint("-1/2") < halfint(0)
    with pytest.raises(ValueError):
        halfint("1/3")
