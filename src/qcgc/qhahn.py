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

from .halfint import HalfInt, halfint
from .qcore import (
    QDomainError,
    q_binomial,
    q_factorial,
    q_gamma_tilde,
    q_pochhammer,
    qnum,
)
from .qhyper import _sum_with_guard
from .cgc import selection_failure


@dataclass(frozen=True)
class HahnParams:
    """Degree n on the lattice of size N with parameters alpha, beta."""

    n: int
    N: int
    alpha: HalfInt
    beta: HalfInt

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "alpha", halfint(self.alpha))
        object.__setattr__(self, "beta", halfint(self.beta))
        if not 0 <= self.n <= self.N - 1:
            raise QDomainError(
                f"degree n={self.n} outside 0..N-1 for N={self.N}")

    def shifted(self, dn):
        """Same family, degree n + dn."""
        return HahnParams(self.n + dn, self.N, self.alpha, self.beta)


@dataclass(frozen=True)
class LatticePoint:
    s: int
    x: object


def lattice_x(s, ctx):
    """Lattice value x(s) = (q^(2s)-1)/(q^2-1); reduces to s at q=1."""
    sv = halfint(s)
    if ctx.is_classical:
        return ctx.to_mpf(sv)
    return (ctx.qpow(2 * sv.as_fraction()) - 1) / (ctx.q ** 2 - 1)


def lattice_point(s, ctx):
    return LatticePoint(s=int(s), x=lattice_x(s, ctx))


def delta_x_half(s, ctx):
    """Forward step through the midpoint: x(s+1/2) - x(s-1/2)."""
    h = Fraction(1, 2)
    sv = halfint(s).as_fraction()
    return lattice_x(sv + h, ctx) - lattice_x(sv - h, ctx)


def _phase(n):
    return 1 if n % 2 == 0 else -1


def hahn_eval(params, s, ctx, form="A"):
    """Evaluate h_n^{alpha,beta}(x(s), N) through either 3F2 representation.

    Form A carries the q-binomial [N-1 choose n] prefactor and sums over
    the lattice index; form B carries the (N+alpha+beta+1) Pochhammer and
    terminates through the degree alone.  Both absorb (beta+1|q)_n into
    the summand as (beta+1+k|q)_{n-k}, which keeps the value finite for
    nonpositive integer beta+1 and agrees with the plain product form
    whenever that one is defined.  The two prefactors as tabulated differ
    by the pure q-power q^(n(n+alpha+beta+2)/2); form B carries the
    compensating factor here so that both representations return the
    same polynomial, in the normalization the norms, recurrence data and
    coupling connection are anchored to.
    """
    return _hahn_series(params.n, params.N, params.alpha, params.beta, s,
                        ctx, form)


def _hahn_series(n, N, a, b, s, ctx, form):
    """hahn_eval on unchecked (n, N, alpha, beta), so n = N is reachable.

    The forms differ in two Pochhammers, the summand's q-power and kmax."""
    s = halfint(s)
    af, bf = a.as_fraction(), b.as_fraction()
    if form == "A":
        second, lower = -s, HalfInt(1 - N)
        expo = (s - N - a).as_fraction()
        kmax = s.as_int() if s.is_integer and 0 <= s.as_int() < n else n
        pref = (ctx.qpow(Fraction(n, 2) * (af + bf + Fraction(n + 1, 2)))
                * q_binomial(N - 1, n, ctx))
    elif form == "B":
        second, lower = s + b + 1, N + a + b + 1
        expo = s.as_fraction() - N + 1
        kmax = n
        pref = (ctx.qpow(-Fraction(n * (n - 1), 4)
                         - Fraction(n, 2) * (n + af + bf + 2))
                * q_pochhammer(lower, n, ctx) / q_factorial(n, ctx))
    else:
        raise QDomainError(f"unknown representation {form!r}")

    def terms(c):
        for k in range(kmax + 1):
            yield (q_pochhammer(HalfInt(-n), k, c)
                   * q_pochhammer(second, k, c)
                   * q_pochhammer(a + b + n + 1, k, c)
                   * q_pochhammer(b + 1 + k, n - k, c)
                   * c.qpow(k * expo)
                   / (q_factorial(k, c) * q_pochhammer(lower, k, c)))

    return _phase(n) * pref * _sum_with_guard(terms, ctx)


def hahn_weight(params, s, ctx):
    """Orthogonality weight rho(s) on the lattice.

    The prefactor is q^((alpha+beta)s): the tabulated source writes the
    exponent (alpha+beta)/2 against the base the q-Gamma functions live
    on (the square of this context's base), so it doubles here.  The
    brute-force Gram matrix and the coupling-coefficient unitarity both
    single out this reading.  A nonpositive-integer Gamma argument is a
    genuine pole and raises.
    """
    a, b, N = params.alpha, params.beta, params.N
    s = halfint(s)
    exp = (a.as_fraction() + b.as_fraction()) * s.as_fraction()
    return (ctx.qpow(exp)
            * q_gamma_tilde(s + b + 1, ctx)
            * q_gamma_tilde(N + a - s, ctx)
            / (q_gamma_tilde(s + 1, ctx)
               * q_gamma_tilde(HalfInt(N) - s, ctx)))


def hahn_norm_sq(params, ctx):
    """Squared norm d_n^2 of h_n under the (rho, delta-x) inner product.

    The Gamma structure follows the classical Hahn norm (a single
    [2n+alpha+beta+1] bracket next to Gamma(n+alpha+beta+1) in the
    denominator); the q-power was pinned down against the brute-force
    Gram diagonal over many (N, alpha, beta, n) and reduces to 1 at q=1,
    where the whole expression becomes the classical Hahn norm.
    """
    n, N = params.n, params.N
    a, b = params.alpha.as_fraction(), params.beta.as_fraction()
    exp = (N - 1) * (b + 1) - 1 - Fraction(n * (n + 1), 2)
    num = (q_gamma_tilde(halfint(n + a + 1), ctx)
           * q_gamma_tilde(halfint(n + b + 1), ctx)
           * q_gamma_tilde(halfint(n + a + b + N + 1), ctx))
    den = (q_factorial(n, ctx) * q_factorial(N - n - 1, ctx)
           * q_gamma_tilde(halfint(n + a + b + 1), ctx)
           * qnum(halfint(2 * n + a + b + 1), ctx))
    return ctx.qpow(exp) * num / den


def gram_entry(params_n, params_m, ctx):
    """Brute-force inner product sum_s h_n h_m rho delta-x over the lattice."""
    if (params_n.N, params_n.alpha, params_n.beta) != \
            (params_m.N, params_m.alpha, params_m.beta):
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
    a, b = params.alpha, params.beta
    exp = Fraction(2 * N + n - 3, 2) + (a.as_fraction()
                                        - b.as_fraction()) / 2
    return (ctx.qpow(exp) * qnum(n + 1, ctx) * qnum(n + a + b + 1, ctx)
            / (qnum(2 * n + a + b + 2, ctx)
               * qnum(2 * n + a + b + 1, ctx)))


def ttrr_gamma(params, ctx):
    """Coefficient of h_{n-1} in x(s) h_n.

    Follows exactly from alpha_{n-1} d_n^2 / d_{n-1}^2, the standard
    relation tying the off-diagonal recurrence coefficients of an
    orthogonal family to its norms.
    """
    n, N = params.n, params.N
    a, b = params.alpha, params.beta
    exp = Fraction(2 * N - n - 4, 2) + (a.as_fraction()
                                        - b.as_fraction()) / 2
    return (ctx.qpow(exp)
            * qnum(n + a, ctx) * qnum(n + b, ctx)
            * qnum(n + a + b + N, ctx) * qnum(HalfInt(N) - n, ctx)
            / (qnum(2 * n + a + b, ctx)
               * qnum(2 * n + a + b + 1, ctx)))


def ttrr_beta(params, ctx):
    """Coefficient of h_n in x(s) h_n.

    Derived from the x^n and x^(n-1) coefficients of h_n and h_{n+1}
    (beta_n equals the difference of the subleading-to-leading ratios),
    worked out from the terminating series on u = q^(2s); validated
    against the exact projection <x h_n, h_n> / d_n^2.
    """
    n, N = params.n, params.N
    a, b = params.alpha, params.beta
    bf = b.as_fraction()
    total = (-ctx.qpow(-bf - n - 2) * qnum(b + n + 1, ctx)
             + ctx.qpow(N - bf - n - 3) * qnum(n + 1, ctx)
             * qnum(b + n + 1, ctx) * qnum(N + a + b + n + 1, ctx)
             / qnum(a + b + 2 * n + 2, ctx))
    if n > 0:
        total -= (ctx.qpow(N - bf - n - 2) * qnum(HalfInt(n), ctx)
                  * qnum(b + n, ctx) * qnum(N + a + b + n, ctx)
                  / qnum(a + b + 2 * n, ctx))
    return total


def hahn_ttrr_residual(params, s, ctx):
    """Relative residual of x(s) h_n = alpha_n h_{n+1} + beta_n h_n + gamma_n h_{n-1}."""
    n = params.n
    h_n = hahn_eval(params, s, ctx)
    h_up = (hahn_eval(params.shifted(1), s, ctx)
            if n + 1 <= params.N - 1 else _monic_like_next(params, s, ctx))
    h_dn = hahn_eval(params.shifted(-1), s, ctx) if n >= 1 else 0
    lhs = lattice_x(s, ctx) * h_n
    terms = [ttrr_alpha(params, ctx) * h_up,
             ttrr_beta(params, ctx) * h_n,
             ttrr_gamma(params, ctx) * h_dn if n >= 1 else 0]
    scale = max(abs(lhs), max(abs(t) for t in terms), 1)
    return abs(lhs - sum(terms)) / scale


def _monic_like_next(params, s, ctx):
    """Degree-N continuation h_N evaluated through representation B.

    Representation A's binomial prefactor vanishes at n = N, so the
    recurrence at the top degree n = N-1 is closed through form B.
    """
    n1 = params.n + 1
    exp = Fraction(n1, 2) * (n1 + params.alpha.as_fraction()
                             + params.beta.as_fraction() + 2)
    return ctx.qpow(exp) * _hahn_series(n1, params.N, params.alpha,
                                        params.beta, s, ctx, "B")


def hahn_lambda(params, ctx):
    """Difference-equation eigenvalue lambda_n."""
    n, N = params.n, params.N
    a, b = params.alpha, params.beta
    exp = Fraction(1, 2) * (b.as_fraction() + 2 - N)
    return ctx.qpow(exp) * qnum(HalfInt(n), ctx) * qnum(n + a + b + 1, ctx)


def hahn_sigma(params, s, ctx):
    """Lattice coefficient sigma(s) of the second-order difference operator.

    Obtained by solving the difference equation exactly for the lattice
    coefficients with the eigenvalue gauge fixed to ``hahn_lambda``: for
    each parameter family the solved coefficients factor as a q-power
    times [s][N+alpha-s], with the exponent 2s + (N-beta)/2 - 3 pinned by
    an exact linear fit over five (N, alpha, beta) families.  The s = 0
    zero of [s] closes the equation at the lower lattice boundary.
    """
    N = params.N
    a, b = params.alpha, params.beta
    s = halfint(s)
    exp = (2 * s.as_fraction()
           + Fraction(1, 2) * (N - b.as_fraction()) - 3)
    return (ctx.qpow(exp) * qnum(s, ctx)
            * qnum(N + a - s, ctx))


def hahn_sigma_tau(params, s, ctx):
    """Combination sigma(s) + tau(s) * delta-x(s-1/2).

    Solved jointly with ``hahn_sigma``; the coefficients factor as a
    q-power times [s+beta+1][N-1-s] with exponent
    2s + alpha + (beta+N)/2 - 3.  The zero of [N-1-s] at s = N-1 closes
    the equation at the upper lattice boundary.
    """
    N = params.N
    a, b = params.alpha, params.beta
    s = halfint(s)
    exp = (2 * s.as_fraction() + a.as_fraction()
           + Fraction(1, 2) * (b.as_fraction() + N) - 3)
    return (ctx.qpow(exp) * qnum(s + b + 1, ctx)
            * qnum(N - 1 - s, ctx))


def hahn_difference_residual(params, s, ctx):
    """Relative residual of the second-order difference equation in s."""
    s = int(s)
    dxm = delta_x_half(s, ctx)
    nab = lattice_x(s, ctx) - lattice_x(s - 1, ctx)
    xi = hahn_sigma_tau(params, s, ctx) / (dxm * nab)
    zeta = hahn_sigma(params, s, ctx) / (dxm * nab)
    lam = hahn_lambda(params, ctx)
    y_md = hahn_eval(params, s, ctx)
    y_up = hahn_eval(params, s + 1, ctx) if s + 1 <= params.N - 1 else 0
    y_dn = hahn_eval(params, s - 1, ctx) if s - 1 >= 0 else 0
    terms = [xi * y_up, (lam - zeta - xi) * y_md, zeta * y_dn]
    scale = max(max(abs(t) for t in terms),
                abs(y_up), abs(y_md), abs(y_dn), 1)
    return abs(sum(terms)) / scale


# ---------------------------------------------------------------------------
# coupling-coefficient connection
# ---------------------------------------------------------------------------

def _connection_data(key, route):
    j1, m1, j2, m2, j, m = key.labels()
    n = j - m
    cap_n = j1 + j2 - m + 1
    if route == "J2":
        s = j2 - m2
        alpha = m - j1 + j2
        beta = m + j1 - j2
        sign = _phase((j1 - m1).as_int())
    elif route == "J1":
        s = j1 - m1
        alpha = m + j1 - j2
        beta = m - j1 + j2
        sign = _phase((j1 - m1 + j - m).as_int())
    else:
        raise QDomainError(f"unknown route {route!r}")
    return n, cap_n, s, alpha, beta, sign


def cgc_from_hahn(key, ctx, route="J2"):
    """Clebsch-Gordan coefficient through the q-Hahn connection.

    Route J2 reads the coefficient off the lattice index s = j2 - m2 with
    polynomials at base q; route J1 uses s = j1 - m1 with polynomials and
    lattice data at base 1/q.  Every factorial-type argument entering the
    weight and norm is a nonnegative integer for admissible keys, so the
    connection applies even where alpha or beta falls at or below -1 and
    generic-parameter orthogonality would fail.
    """
    if selection_failure(key) is not None:
        return ctx.to_mpf(0)
    n, cap_n, s, alpha, beta, sign = _connection_data(key, route)
    for label, v in (("n", n), ("N", cap_n), ("s", s),
                     ("alpha", alpha), ("beta", beta)):
        if not halfint(v).is_integer:
            raise QDomainError(f"connection substitution {label}={v} "
                               "is not an integer")
    base = ctx if route == "J2" else ctx.reciprocal()
    params = HahnParams(n=halfint(n).as_int(), N=halfint(cap_n).as_int(),
                        alpha=alpha, beta=beta)
    norm = base.mp.sqrt(hahn_weight(params, s, base) * delta_x_half(s, base)
                        / hahn_norm_sq(params, base))
    value = sign * norm * hahn_eval(params, s, base)
    return ctx.to_mpf(value)
