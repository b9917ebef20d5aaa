"""Unit tests of the residual helpers behind the verify suites."""

import pytest

from qcgc import QContext, verify

CTX = QContext(q="0.5", precision=50)


def test_gap_of_the_same_bits_is_an_exact_zero():
    mpf = CTX.mp.mpf
    a, b = mpf(1) / 3, mpf(1) / 3
    assert a is not b
    assert verify._gap(a, b) == 0 and type(verify._gap(a, b)) is int
    # the bits decide, not the context that made them
    other = QContext(q="0.9", precision=50).mp.mpf(1) / 3
    assert verify._gap(a, other) == 0
    assert verify._gap(mpf(0), mpf(0)) == 0


def _ulp_above(x):
    return CTX.mp.mpf((x.man + 1, x.exp))


@pytest.mark.parametrize("pair", [
    lambda mpf: (mpf(1) / 3, -mpf(1) / 3),  # opposite signs
    lambda mpf: (mpf(1) / 3, _ulp_above(mpf(1) / 3)),  # one ulp
    lambda mpf: (_ulp_above(mpf(7) / 9), mpf(7) / 9),
    lambda mpf: (mpf(3) / 2, mpf("3e-20")),  # different exponents
    lambda mpf: (mpf("2.5e-60"), mpf(10) ** 12 / 7),
    lambda mpf: (mpf(0), mpf(1) / 7),
], ids=["signs", "ulp", "ulp-below", "exponents", "exponents-up", "zero"])
def test_gap_of_different_bits_is_the_absolute_difference(pair):
    a, b = pair(CTX.mp.mpf)
    assert a._mpf_ != b._mpf_
    assert verify._gap(a, b)._mpf_ == abs(a - b)._mpf_
    assert verify._gap(b, a)._mpf_ == abs(b - a)._mpf_


def test_worst_relative_divides_only_a_gap():
    mpf = CTX.mp.mpf
    worst = mpf("1e-60")
    a = mpf(1000) / 3
    assert verify._worst_relative(worst, a, mpf(1000) / 3) is worst
    assert verify._worst_relative(0, a, +a) == 0
    b = _ulp_above(a)
    assert (verify._worst_relative(worst, a, b)._mpf_
            == max(worst, abs(a - b) / max(abs(a), 1))._mpf_)
    small = mpf(1) / 3
    assert (verify._worst_relative(0, small, _ulp_above(small))._mpf_
            == abs(small - _ulp_above(small))._mpf_)


def test_the_shortcut_moves_no_residual(monkeypatch):
    # the quick battery, residual by residual, against the arithmetic the
    # shortcut skips; qhyper, whose grids take most of the battery's time,
    # reaches the same two helpers, pinned above
    names = [name for name in verify.SUITES if name != "qhyper"]

    def run():
        return [repr(check.residual)
                for checks in verify.run_suites(names, quick=True).values()
                for check in checks]

    shortcut = run()
    monkeypatch.setattr(verify, "_gap", lambda a, b: abs(a - b))
    monkeypatch.setattr(verify, "_worst_relative", lambda worst, a, b: max(
        worst, abs(a - b) / max(abs(a), 1)))
    assert run() == shortcut
