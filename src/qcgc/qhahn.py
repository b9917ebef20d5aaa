"""q-Hahn polynomials on the q-linear lattice x(s) = (q^(2s)-1)/(q^2-1).

The family implemented here is the one whose q -> 1 limit reproduces the
classical Hahn polynomials without any rescaling.  Both hypergeometric
representations are evaluated with the (beta+1) Pochhammer absorbed into
the sum, so values stay finite when beta+1 is a nonpositive integer (the
coupling substitutions below do produce such parameters).

The module also carries the lattice data (weight, squared norms,
three-term recurrence and difference-equation coefficients) and the two
routes expressing a Clebsch-Gordan coefficient as a normalized q-Hahn
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .halfint import HalfInt, doubled
from .qcore import QDomainError, _as_index, _qpow_pair, _sqrt_pair, q_gamma_tilde
from .qhyper import HyperSeriesSpec, _pochhammer_pair, eval_terminating
from .cgc import (CgcKey, _relative_residual, cgc_racah, selection_failure,
                  selection_rules)


@dataclass(frozen=True, slots=True, init=False)
class HahnParams:
    """Degree n on the lattice of size N with parameters alpha, beta, held
    only as ``twice`` = (2 alpha, 2 beta): labels are read through
    ``halfint.doubled``, or ``twice=`` takes the ints, as for ``CgcKey``;
    ``alpha`` and ``beta`` are HalfInts made on the read.  n, N and the
    entries of ``twice`` are read through ``qcore._as_index``, so a
    non-integral one, or a bool, raises QDomainError instead of being
    truncated."""

    n: int
    N: int
    twice: tuple

    def __init__(self, n, N, alpha=None, beta=None, *, twice=None):
        if twice is None:
            twice = doubled(alpha), doubled(beta)
        elif alpha is not None or beta is not None:
            raise TypeError("HahnParams takes alpha and beta or twice=, not both")
        n, N = _as_index(n), _as_index(N)
        if not 0 <= n <= N - 1:
            raise QDomainError(f"degree n={n} outside 0..N-1 for N={N}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        ta, tb = twice
        object.__setattr__(self, "twice", (_as_index(ta), _as_index(tb)))

    alpha, beta = (property(lambda self, i=i: HalfInt(twice=self.twice[i]))
                   for i in range(2))

    def shifted(self, dn):
        """Same family, degree n + dn."""
        return HahnParams(self.n + dn, self.N, twice=self.twice)


def lattice_x(s, ctx):
    """Lattice value x(s) = (q^(2s)-1)/(q^2-1) = q^(s-1) [s]; s at q=1."""
    s = doubled(s)
    return _bracket_ratio([s], [], 2 * s - 4, ctx)


def delta_x_half(s, ctx):
    """Forward step through the midpoint: x(s+1/2) - x(s-1/2) = q^(2s-1)."""
    return ctx.qpow(doubled(s) - 1)


def _phase(n):
    return 1 if n % 2 == 0 else -1


def hahn_eval(params, s, ctx, form="A"):
    """Evaluate h_n^{alpha,beta}(x(s), N) through either 3F2 representation.

    Form A carries the q-binomial [N-1 choose n] prefactor and sums over
    the lattice index; form B carries the (N+alpha+beta+1) Pochhammer and
    terminates through the degree alone.  Both absorb (beta+1|q)_n into
    the summand as (beta+1+k|q)_{n-k}, and form B its own Pochhammer
    likewise, which keeps the value finite at nonpositive integer
    parameters and agrees with the plain product form wherever that is
    defined.  Either way the value is a prefactor times a 3F2 summed by
    ``eval_terminating``: over (beta+1|q)_k, or, when some of the absorbed
    Pochhammers vanish, restarted at the first summand that does not.
    The two prefactors as tabulated differ
    by the pure q-power q^(n(n+alpha+beta+2)/2); form B carries the
    compensating factor here so that both representations return the
    same polynomial, in the normalization the norms, recurrence data and
    coupling connection are anchored to.
    """
    return _hahn_series(params.n, params.N, *params.twice, doubled(s), ctx,
                        form)


def _hahn_series(n, N, ta, tb, ts, ctx, form):
    """hahn_eval on unchecked (n, N, 2 alpha, 2 beta, 2s), so n = N is
    reachable.

    The forms differ in the prefactor, the second numerator and the
    lower denominator parameter, and the series argument."""
    den = [tb + 2, 2 - 2 * N]  # beta+1 and lower
    if form == "A":
        second, expo = -ts, ts - 2 * N - ta
        # q^(n/2 (alpha+beta+(n+1)/2)) [N-1 choose n]
        four_power = n * (ta + tb + n + 1)
        pref, absorbed = [(2 * (N - n), n)], den[:1]
    elif form == "B":
        second, expo = ts + tb + 2, ts - 2 * N + 2
        den[1] = 2 * N + ta + tb + 2
        # q^(-n(n-1)/4 - n/2 (n+alpha+beta+2)) (lower|q)_n / [n]!
        four_power = -n * (n - 1) - n * (2 * n + ta + tb + 4)
        pref, absorbed = [], den
    else:
        raise QDomainError(f"unknown representation {form!r}")
    # summand k is the prefactor over [n]! times (-n, second, a+b+n+1|q)_k
    # q^(k expo) / [k]!, times (p+k|q)_(n-k) for each absorbed p and over
    # (p|q)_k for the other.  It vanishes below the first k0 at which no
    # absorbed Pochhammer has a zero bracket; from k0 on it is the k0-th
    # summand times a 3F2 over k0+1 and each p+k0, less the 1 that the
    # series' own [k]! stands for
    k0 = max([(2 - p) // 2 for p in absorbed
              if p <= 0 and not p % 2 and p > -2 * n], default=0)
    upper = [-2 * n, second, ta + tb + 2 * n + 2]
    first = _pochhammer_pair(
        [(u, k0) for u in upper] + [(p + 2 * k0, n - k0) for p in absorbed]
        + pref, [(2, k0), (2, n)] + [(p, k0) for p in den[len(absorbed):]],
        _qpow_quarter(four_power + 2 * k0 * expo, ctx), ctx)
    if not first[0]:
        return ctx.to_mpf(0)
    den = [2 * k0 + 2] + [p + 2 * k0 for p in den]
    den.remove(2)
    spec = HyperSeriesSpec(twice=([u + 2 * k0 for u in upper], den, expo))
    return _phase(n) * eval_terminating(spec, ctx, scale=first)


def _qpow_quarter(four, ctx):
    """The pair of q^(four/4), the square root of q^(four/2) at odd four."""
    if four % 2:
        return _sqrt_pair(_qpow_pair(four, ctx), ctx.width)
    return _qpow_pair(four // 2, ctx)


def _bracket_ratio(num, den, four_power, ctx):
    """q^(four_power/4) prod [t/2] over doubled t in num over den, rounded once."""
    return ctx.mp.mpf(_pochhammer_pair([(t, 1) for t in num],
                                       [(t, 1) for t in den],
                                       _qpow_quarter(four_power, ctx), ctx))


def _gamma_ratio(num, den, four_power, ctx):
    """q^(four_power/4) prod Gamma_tilde(t/2) over the doubled t in ``num``
    over that in ``den``.  Gamma_tilde(t/2) is [1][2]..[t/2-1] at even
    t > 0, and Gamma_tilde(1/2) times [1/2][3/2]..[t/2-1] at odd t > 0 or
    over [t/2]..[-1/2] at odd t < 0; an even t <= 0 is a pole."""
    brackets, halves = ([], []), 0
    for side, twices in enumerate((num, den)):
        for t in twices:
            if t <= 0 and not t % 2:
                raise QDomainError(f"q-Gamma pole at s={HalfInt(twice=t)}")
            if t > 0:
                brackets[side].extend(range(2 - t % 2, t, 2))
            else:
                brackets[1 - side].extend(range(t, 0, 2))
            halves += t % 2 * (1 - 2 * side)
    value = _bracket_ratio(*brackets, four_power, ctx)
    if halves:
        value *= q_gamma_tilde(Fraction(1, 2), ctx) ** halves
    return value


def hahn_weight(params, s, ctx):
    """Orthogonality weight rho(s) on the lattice.

    The prefactor is q^((alpha+beta)s): the tabulated source writes the
    exponent (alpha+beta)/2 against the base the q-Gamma functions live
    on (the square of this context's base), so it doubles here.  The
    brute-force Gram matrix and the coupling-coefficient unitarity both
    single out this reading.  A nonpositive-integer Gamma argument is a
    genuine pole and raises.
    """
    (a, b), N, s = params.twice, params.N, doubled(s)
    return _gamma_ratio([s + b + 2, 2 * N + a - s], [s + 2, 2 * N - s],
                        (a + b) * s, ctx)


def hahn_norm_sq(params, ctx):
    """Squared norm d_n^2 of h_n under the (rho, delta-x) inner product.

    The Gamma structure follows the classical Hahn norm (a single
    [2n+alpha+beta+1] bracket next to Gamma(n+alpha+beta+1) in the
    denominator); the q-power was pinned down against the brute-force
    Gram diagonal over many (N, alpha, beta, n) and reduces to 1 at q=1,
    where the whole expression becomes the classical Hahn norm.  Here
    [n]! = Gamma_tilde(n+1) and [x] = Gamma_tilde(x+1) / Gamma_tilde(x).
    """
    n, N = params.n, params.N
    a, b = params.twice
    x = 4 * n + a + b + 2  # the doubled 2n+alpha+beta+1
    return _gamma_ratio(
        [2 * n + a + 2, 2 * n + b + 2, 2 * n + a + b + 2 * N + 2, x],
        [2 * n + 2, 2 * (N - n), 2 * n + a + b + 2, x + 2],
        2 * (N - 1) * (b + 2) - 4 - 2 * n * (n + 1), ctx)


def gram_entry(params_n, params_m, ctx):
    """Brute-force inner product sum_s h_n h_m rho delta-x over the lattice."""
    if (params_n.N, params_n.twice) != (params_m.N, params_m.twice):
        raise QDomainError("gram_entry requires a shared family")
    return sum(hahn_eval(params_n, s, ctx) * hahn_eval(params_m, s, ctx)
               * hahn_weight(params_n, s, ctx) * delta_x_half(s, ctx)
               for s in range(params_n.N))


# ---------------------------------------------------------------------------
# three-term recurrence and difference-equation data
# ---------------------------------------------------------------------------

def ttrr_alpha(params, ctx):
    """Coefficient of h_{n+1} in x(s) h_n.

    The bracket structure matches the tabulated row; the q-power was
    re-fit against the exact projection <x h_n, h_{n+1}> / d_{n+1}^2
    because the tabulated exponent fails off q=1.
    """
    n, N = params.n, params.N
    a, b = params.twice
    return _bracket_ratio([2 * n + 2, 2 * n + a + b + 2],
                          [4 * n + a + b + 4, 4 * n + a + b + 2],
                          4 * N + 2 * n - 6 + a - b, ctx)


def ttrr_gamma(params, ctx):
    """Coefficient of h_{n-1} in x(s) h_n.

    Follows exactly from alpha_{n-1} d_n^2 / d_{n-1}^2, the standard
    relation tying the off-diagonal recurrence coefficients of an
    orthogonal family to its norms.
    """
    n, N = params.n, params.N
    a, b = params.twice
    return _bracket_ratio(
        [2 * n + a, 2 * n + b, 2 * (n + N) + a + b, 2 * (N - n)],
        [4 * n + a + b, 4 * n + a + b + 2], 4 * N - 2 * n - 8 + a - b, ctx)


def ttrr_beta(params, ctx):
    """Coefficient of h_n in x(s) h_n.

    Derived from the x^n and x^(n-1) coefficients of h_n and h_{n+1}
    (beta_n equals the difference of the subleading-to-leading ratios),
    worked out from the terminating series on u = q^(2s); validated
    against the exact projection <x h_n, h_n> / d_n^2.
    """
    n, N = params.n, params.N
    a, b = params.twice
    m = 2 * n + b  # the doubled n+beta
    total = (_bracket_ratio([2 * n + 2, m + 2, 2 * N + a + m + 2],
                            [a + m + 2 * n + 4], 4 * N - 2 * m - 12, ctx)
             - _bracket_ratio([m + 2], [], -2 * m - 8, ctx))
    if n > 0:
        total -= _bracket_ratio([2 * n, m, 2 * N + a + m], [a + m + 2 * n],
                                4 * N - 2 * m - 8, ctx)
    return total


def hahn_ttrr_residual(params, s, ctx):
    """Relative residual of x(s) h_n = alpha_n h_{n+1} + beta_n h_n + gamma_n h_{n-1}."""
    n = params.n
    h_n = hahn_eval(params, s, ctx)
    h_up = (hahn_eval(params.shifted(1), s, ctx)
            if n + 1 <= params.N - 1 else _monic_like_next(params, s, ctx))
    h_dn = hahn_eval(params.shifted(-1), s, ctx) if n >= 1 else 0
    # the left side goes last, negated, so the sum rounds as
    # lhs - (alpha + beta + gamma) does, up to sign
    terms = [ttrr_alpha(params, ctx) * h_up,
             ttrr_beta(params, ctx) * h_n,
             ttrr_gamma(params, ctx) * h_dn if n >= 1 else 0,
             -lattice_x(s, ctx) * h_n]
    return _relative_residual(terms, ())


def _monic_like_next(params, s, ctx):
    """Degree-N continuation h_N evaluated through representation B.

    Representation A's binomial prefactor vanishes at n = N, so the
    recurrence at the top degree n = N-1 is closed through form B.
    """
    n1, (a, b) = params.n + 1, params.twice
    return (_bracket_ratio([], [], n1 * (2 * n1 + a + b + 4), ctx)
            * _hahn_series(n1, params.N, a, b, doubled(s), ctx, "B"))


def hahn_lambda(params, ctx):
    """Difference-equation eigenvalue lambda_n."""
    n, N = params.n, params.N
    a, b = params.twice
    return _bracket_ratio([2 * n, 2 * n + a + b + 2], [], b + 4 - 2 * N, ctx)


def hahn_sigma(params, s, ctx):
    """Lattice coefficient sigma(s) of the second-order difference operator.

    Obtained by solving the difference equation exactly for the lattice
    coefficients with the eigenvalue gauge fixed to ``hahn_lambda``: for
    each parameter family the solved coefficients factor as a q-power
    times [s][N+alpha-s], with the exponent 2s + (N-beta)/2 - 3 pinned by
    an exact linear fit over five (N, alpha, beta) families.  The s = 0
    zero of [s] closes the equation at the lower lattice boundary.
    """
    (a, b), N, s = params.twice, params.N, doubled(s)
    return _bracket_ratio([s, 2 * N + a - s], [], 4 * s + 2 * N - b - 12, ctx)


def hahn_sigma_tau(params, s, ctx):
    """Combination sigma(s) + tau(s) * delta-x(s-1/2).

    Solved jointly with ``hahn_sigma``; the coefficients factor as a
    q-power times [s+beta+1][N-1-s] with exponent
    2s + alpha + (beta+N)/2 - 3.  The zero of [N-1-s] at s = N-1 closes
    the equation at the upper lattice boundary.
    """
    (a, b), N, s = params.twice, params.N, doubled(s)
    return _bracket_ratio([s + b + 2, 2 * N - 2 - s], [],
                          4 * s + 2 * a + b + 2 * N - 12, ctx)


def hahn_difference_residual(params, s, ctx):
    """Relative residual of the second-order difference equation in s."""
    s = _as_index(s)
    dxm = delta_x_half(s, ctx)
    nab = lattice_x(s, ctx) - lattice_x(s - 1, ctx)
    xi = hahn_sigma_tau(params, s, ctx) / (dxm * nab)
    zeta = hahn_sigma(params, s, ctx) / (dxm * nab)
    lam = hahn_lambda(params, ctx)
    y_md = hahn_eval(params, s, ctx)
    y_up = hahn_eval(params, s + 1, ctx) if s + 1 <= params.N - 1 else 0
    y_dn = hahn_eval(params, s - 1, ctx) if s - 1 >= 0 else 0
    terms = [xi * y_up, (lam - zeta - xi) * y_md, zeta * y_dn]
    return _relative_residual(terms, (y_up, y_md, y_dn))


# ---------------------------------------------------------------------------
# coupling-coefficient connection
# ---------------------------------------------------------------------------

def _connection_data(key, route):
    """(params, s, sign) of the key's q-Hahn value on ``route``, read off
    ``key.twice`` as ints: params takes 2 alpha and 2 beta through twice=.

    Route J2 sums its Hahn series at base q and route J1 at base 1/q.
    Each route returned wrong values without raising exactly where its
    series runs at base > 1: on every 29th admissible key with 2j1, 2j2
    <= 16 (5676 keys) at 50 digits, J1 gave 152 wrong values at q = 3/10
    and J2 127 at q = 3, and neither gave one in the other direction.
    Wrong means a wrong sign or C^2 more than 1e-49 relative off the
    exact C^2."""
    j1, m1, j2, m2, j, m = key.twice
    if route == "J2":
        s, alpha, beta, phase = j2 - m2, m - j1 + j2, m + j1 - j2, j1 - m1
    elif route == "J1":
        s, alpha, beta, phase = j1 - m1, m + j1 - j2, m - j1 + j2, j1 - m1 + j - m
    else:
        raise QDomainError(f"unknown route {route!r}")
    params = HahnParams((j - m) // 2, (j1 + j2 - m) // 2 + 1,
                        twice=(alpha, beta))
    return params, s // 2, _phase(phase // 2)


def cgc_from_hahn(key, ctx, route="J2"):
    """Clebsch-Gordan coefficient through the q-Hahn connection.

    Route J2 reads the coefficient off the lattice index s = j2 - m2 and
    sums its Hahn series at base q; route J1 uses s = j1 - m1 and sums
    its series, with the lattice data, at base 1/q.  Every factorial-type
    argument entering the weight and norm is a nonnegative integer for
    admissible keys, so the connection applies even where alpha or beta
    falls at or below -1 and generic-parameter orthogonality would fail.

    A route returns wrong values without raising exactly where its series
    runs at base > 1, J1 at q < 1 and J2 at q > 1: on every 29th
    admissible key with 2j1, 2j2 <= 16, J1 gave 152 wrong values at
    q = 3/10 and J2 127 at q = 3, and 0 the other way round (see
    ``_connection_data``).
    """
    if selection_failure(key) is not None:
        return ctx.to_mpf(0)
    params, s, sign = _connection_data(key, route)
    base = ctx if route == "J2" else ctx.reciprocal()
    norm = base.mp.sqrt(hahn_weight(params, s, base) * delta_x_half(s, base)
                        / hahn_norm_sq(params, base))
    value = sign * norm * hahn_eval(params, s, base)
    return ctx.to_mpf(value)


def recurrence_j_residual(key, ctx):
    """Residual of the three-term recurrence in j at fixed magnetic labels.

    On route J2 a coupling coefficient C(j) is a fixed sign times
    sqrt(rho(s) delta-x / d_n^2) h_n(s) at s = j2 - m2, and only the
    degree n = j - m moves with j.  Dividing the polynomial recurrence
    x h_n = alpha_n h_(n+1) + beta_n h_n + gamma_n h_(n-1) by sqrt(d_n^2)
    gives

        x(s) C(j) = alpha_n sqrt(d_(n+1)^2/d_n^2) C(j+1) + beta_n C(j)
                    + gamma_n sqrt(d_(n-1)^2/d_n^2) C(j-1),

    where a neighbour failing the selection rules drops out.  A published
    coefficient table for this relation could not be reconciled with the
    values (only its m1-dependent part checks out), so the coefficients
    are read off the polynomial data, which is anchored to the norms and
    the brute-force Gram matrix.  A key that fails the selection rules
    raises QDomainError.
    """
    reason = selection_failure(key)
    if reason is not None:
        raise QDomainError(f"three-term recurrence in j: {reason}")
    j1, m1, j2, m2, j, m = key.twice
    if j == 0:
        raise QDomainError("three-term recurrence in j is singular at j=0")
    params, s, _ = _connection_data(key, "J2")
    d_sq = hahn_norm_sq(params, ctx)
    terms, values = [], []
    for dj, coefficient in ((-1, ttrr_gamma), (1, ttrr_alpha)):
        neighbour = CgcKey(twice=(j1, m1, j2, m2, j + 2 * dj, m))
        value = cgc_racah(neighbour, ctx)
        values.append(value)
        if selection_rules(neighbour):
            ratio = hahn_norm_sq(params.shifted(dj), ctx) / d_sq
            terms.append(coefficient(params, ctx) * ctx.mp.sqrt(ratio) * value)
    value = cgc_racah(key, ctx)
    terms.append((ttrr_beta(params, ctx) - lattice_x(s, ctx)) * value)
    return _relative_residual(terms, (*values, value))
