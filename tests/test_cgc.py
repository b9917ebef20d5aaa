"""Unit tests for the Clebsch-Gordan closed forms and their structure."""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qcgc import CgcKey, HalfInt, QContext, admissible_keys, compute, halfint_range
from qcgc.cgc import (
    ALL_FORMULAS,
    SYMMETRIES,
    apply_symmetry,
    cgc_racah,
    cgc_sum,
    classical_parity_zero_value,
    racah_table,
    recurrence_m_residual,
    selection_failure,
    special_value,
)
from qcgc.qcore import QDomainError, qnum
from qcgc.qhahn import recurrence_j_residual

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


def test_integer_selection_rules_admit_exactly_the_admissible_keys():
    # every doubled-label sextuple with 2j's in 0..3 and 2m's in -3..3
    spins = [HalfInt(twice=t) for t in range(4)]
    admissible = {key.twice for j1 in spins for j2 in spins
                  for key in admissible_keys(j1, j2, j_cap=spins[-1])}
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
    # spins the forms agree bit for bit at q = 1 and 2, not at q = 0.3
    spins = [HalfInt(twice=t) for t in range(4)]
    keys = [key for j1 in spins for j2 in spins
            for key in admissible_keys(j1, j2)]
    with_special = nonzero = 0
    for ctx in (QContext(q=q, precision=50) for q in ("0.3", "1", "2")):
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


def test_boosted_sums_are_reals_of_the_calling_context():
    # a sum that cancels past the guard digits reruns in a boosted
    # context; what it returns, and a deviation taken from such values,
    # are still reals of the caller's context at its precision
    ctx = QContext(q=1, precision=50)
    table = racah_table(2, 2, ctx)
    zero = cgc_racah(CgcKey(2, -1, 2, -1, 3, -2), ctx)
    small = QContext(q="0.02", precision=50)
    deviation = compute(CgcKey(1, -1, "3/2", "-3/2", "5/2", "-5/2"), small,
                        mode="crosscheck").deviation
    for c in (ctx, small):
        assert any(key[0] == "boost" for key in c._cache)
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


def _exact_classical(j1, m1, j2, m2, j, m):
    """Sign and square of the q = 1 coefficient: the Racah sum in Fractions."""
    f = math.factorial
    total = sum(Fraction((-1) ** k, f(k) * f(j1 + j2 - j - k) * f(j1 - m1 - k)
                         * f(j2 + m2 - k) * f(j - j2 + m1 + k)
                         * f(j - j1 - m2 + k))
                for k in range(max(0, j2 - j - m1, j1 + m2 - j),
                               min(j1 + j2 - j, j1 - m1, j2 + m2) + 1))
    square = Fraction((2 * j + 1) * f(j1 + j2 - j) * f(j1 - j2 + j)
                      * f(j2 - j1 + j) * f(j1 + m1) * f(j1 - m1) * f(j2 + m2)
                      * f(j2 - m2) * f(j + m) * f(j - m),
                      f(j1 + j2 + j + 1)) * total ** 2
    return (total > 0) - (total < 0), square


def test_racah_keeps_precision_at_large_spin():
    ctx = QContext(q=1, precision=30)
    for labels in ((120, 0, 120, 0, 120, 0), (100, 0, 110, 0, 60, 0),
                   (90, 0, 120, 0, 150, 0)):
        sign, square = _exact_classical(*labels)
        value = cgc_racah(CgcKey(*labels), ctx)
        with mp.workdps(2 * ctx.precision):
            exact = sign * mp.sqrt(mpf(square.numerator) / square.denominator)
            assert abs(value - exact) <= mpf(10) ** -ctx.precision * abs(exact)
    # j1 + j2 + j odd: a parity zero
    assert _exact_classical(120, 0, 119, 0, 200, 0)[1] == 0
    value = cgc_racah(CgcKey(120, 0, 119, 0, 200, 0), ctx)
    assert abs(value) < mpf(10) ** -ctx.precision


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


def test_one_context_shared_across_threads():
    # the context's memo and integer tables grow while two threads read
    # them; each thread must still see exactly the single-threaded values
    keys = admissible_keys(3, 3) + [
        CgcKey(60, 3, 65, -2, 70, 1), CgcKey("121/2", "1/2", 64, 0, "115/2", "1/2"),
        CgcKey("235/2", "3/2", "217/2", "-1/2", 119, 1), CgcKey(90, 0, 80, 0, 150, 0)]
    # one more input, the whole 3 x 3 table, grows the sqrt([n]!) tables
    # through racah_table instead of one key at a time
    alone = QContext(q="0.7", precision=50)
    expected = [cgc_racah(key, alone) for key in keys]
    expected.append(racah_table(3, 3, alone))
    shared = QContext(q="0.7", precision=50)
    threaded = {}

    def evaluate(i):
        if i == len(keys):
            return racah_table(3, 3, shared)
        return cgc_racah(keys[i], shared)

    def run(name, order):
        threaded[name] = {i: evaluate(i) for i in order}

    forward = range(len(keys) + 1)
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
    # q = 1 the true zeros boost and leave residues below 1e-140, which
    # round differently on the two sides
    ctx = QContext(q=q, precision=50)
    alone = QContext(q=q, precision=50)
    for j1, j2 in (("1/2", "1/2"), (2, 1), ("5/2", "3/2"), (4, 4), (8, 2)):
        keys = admissible_keys(j1, j2)
        table = racah_table(j1, j2, ctx)
        assert list(table) == [key.twice for key in keys]
        for key in keys:
            value, expected = table[key.twice], cgc_racah(key, alone)
            if q == "1" and max(abs(value), abs(expected)) < mpf("1e-140"):
                continue
            assert abs(value - expected) <= mpf("1e-60") * abs(expected), key
    if q == "1":
        assert any(key[0] == "boost" for key in ctx._cache)


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
