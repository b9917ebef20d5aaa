"""Unit tests for the Clebsch-Gordan closed forms and their structure."""

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
    recurrence_j_residual,
    recurrence_m_residual,
    selection_failure,
    special_value,
)
from qcgc.qcore import QDomainError, qnum

CTX = QContext(q="0.5", precision=50)


def _random_key(rng, cap=2):
    pool = halfint_range(0, cap)
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
    alone = QContext(q="0.7", precision=50)
    expected = [cgc_racah(key, alone) for key in keys]
    shared = QContext(q="0.7", precision=50)
    threaded = {}

    def run(name, order):
        threaded[name] = {i: cgc_racah(keys[i], shared) for i in order}

    forward = range(len(keys))
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


@pytest.mark.parametrize("q", ["0.99", "0.9", "1.25"])
def test_racah_keeps_precision_of_long_q_power_chains(q):
    # q^-346 and its successors are built one multiply at a time; a chain
    # that is not renormalised after each step loses a bit per step
    key = CgcKey("235/2", "3/2", "217/2", "-1/2", 119, 1)
    value = cgc_racah(key, QContext(q=q, precision=50))
    reference = cgc_racah(key, QContext(q=q, precision=120))
    assert abs(value - reference) <= mpf("1e-55") * abs(reference)


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
