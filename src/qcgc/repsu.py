"""Sparse-matrix representations of the q-deformed angular momentum algebra.

Finite irreducible representations, their tensor products through the
coproduct, the extremal projection operator and two independent
matrix-level constructions of Clebsch-Gordan coefficients.  A vector
is a one-column matrix.  Matrices leave out the entries that are zero
by structure; the entries they keep are mpmath reals of the
:class:`QContext` (or exact Python ints), so they inherit its
configurable precision.  Bases, operators and coupled states are keyed
by doubled labels (2j, 2m) as ints; a public function reads each label
it is handed once, through ``halfint.doubled``.

The commutation relations realized are [J0, J+-] = +-J+- and
[J+, J-] = [2 J0].
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from types import MappingProxyType

from .cgc import selection_rules
from .halfint import doubled
from .qcore import QDomainError, _bracket, q_factorial, qnum


def _merged(a, b, op):
    """{k: op(a[k], b[k])} over the keys of either dict, 0 where absent."""
    return {k: op(a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys()}


class SparseMatrix:
    """A matrix that keeps each row as a dict from column to entry; an
    absent entry reads 0.

    Every operator here moves weight by a fixed amount, so a row holds at
    most one weight block and a product multiplies only entries that can
    be nonzero.  ``read_only()`` makes a write raise ``ValueError``, for
    the matrices a context keeps for every caller.
    """

    __slots__ = ("shape", "rows", "_read_only")

    def __init__(self, shape, rows=None):
        self.shape = shape
        self.rows = {} if rows is None else rows
        self._read_only = False

    def read_only(self):
        self._read_only = True
        return self

    def __getitem__(self, index):
        r, c = index
        return self.rows.get(r, {}).get(c, 0)

    def __setitem__(self, index, x):
        if self._read_only:
            raise ValueError("matrix is read-only")
        r, c = index
        self.rows.setdefault(r, {})[c] = x

    def __iter__(self):
        for row in self.rows.values():
            yield from row.values()

    def __eq__(self, other):
        """Exact entrywise comparison."""
        return self.shape == other.shape and all(x == 0 for x in self - other)

    @property
    def T(self):
        out = SparseMatrix(self.shape[::-1])
        for r, row in self.rows.items():
            for c, x in row.items():
                out.rows.setdefault(c, {})[r] = x
        return out

    def _map(self, f):
        return SparseMatrix(self.shape, {r: {c: f(x) for c, x in row.items()}
                                         for r, row in self.rows.items()})

    def __mul__(self, s):
        return self._map(lambda x: x * s)

    def __truediv__(self, s):
        return self._map(lambda x: x / s)

    def __rmul__(self, s):
        return self._map(lambda x: s * x)

    def _merge(self, other, op):
        empty = {}
        return SparseMatrix(self.shape, {
            r: _merged(self.rows.get(r, empty), other.rows.get(r, empty), op)
            for r in self.rows.keys() | other.rows.keys()})

    def __add__(self, other):
        return self._merge(other, operator.add)

    def __sub__(self, other):
        return self._merge(other, operator.sub)

    def __matmul__(self, other):
        """Each entry sums its terms by k up, as a dense product does."""
        rows = {}
        for r, row in self.rows.items():
            acc = {}
            for k in sorted(row):
                a = row[k]
                for c, b in other.rows.get(k, {}).items():
                    p = a * b
                    acc[c] = acc[c] + p if c in acc else p
            if acc:
                rows[r] = acc
        return SparseMatrix((self.shape[0], other.shape[1]), rows)


def _kron(a, b):
    """Kronecker product, a's index outer."""
    n, m = b.shape
    out = SparseMatrix((a.shape[0] * n, a.shape[1] * m))
    for r1, row1 in a.rows.items():
        for r2, row2 in b.rows.items():
            out.rows[r1 * n + r2] = {c1 * m + c2: x * y
                                     for c1, x in row1.items()
                                     for c2, y in row2.items()}
    return out


def _spin(j):
    """Twice a spin label, which must be nonnegative."""
    tj = doubled(j)
    if tj < 0:
        raise QDomainError("spin must be nonnegative")
    return tj


def _weights(tj):
    """The doubled weights of the spin-tj/2 irrep, highest first."""
    return range(tj, -tj - 1, -2)


class TensorBasis:
    """Product basis |j1 m1>|j2 m2>, m1 outer (Kronecker order), each
    factor by decreasing m, from labels or from ``twice=(2j1, 2j2)``.  It
    holds ``tj1``, ``tj2`` and each state's doubled weight in ``weights``.
    ``TensorBasis(j, 0)`` is the weight basis of the spin-j irrep."""

    def __init__(self, *labels, twice=None):
        self.tj1, self.tj2 = map(_spin, labels) if twice is None else twice
        self.dim = (self.tj1 + 1) * (self.tj2 + 1)
        self.weights = [tm1 + tm2 for tm1 in _weights(self.tj1)
                        for tm2 in _weights(self.tj2)]

    def index(self, tm1, tm2):
        return ((self.tj1 - tm1) // 2 * (self.tj2 + 1)
                + (self.tj2 - tm2) // 2)


def mat_zeros(n):
    # exact Python 0 and 1 fills: an mpmath real of another context on the
    # left of a product or sum would round the result to its precision
    return SparseMatrix((n, n))


def mat_eye(n):
    return SparseMatrix((n, n), {i: {i: 1} for i in range(n)})


def mat_max_abs(a):
    return max((abs(x) for x in a), default=0)


def mat_power(a, r):
    if r == 0:
        return mat_eye(a.shape[0])
    # no caller writes to a power, so r = 1 returns a itself
    out = a
    for _ in range(r - 1):
        out = out @ a
    return out


def commutator(a, b):
    return a @ b - b @ a


def _diag_qnum(basis, form, ctx):
    """diag([x]) over the basis's doubled weights tm, where form(tm) is 2x:
    an int, or a Fraction off the half-integer lattice."""
    out = mat_zeros(basis.dim)
    for i, tm in enumerate(basis.weights):
        t = form(tm)
        out[i, i] = (qnum(t / 2, ctx) if isinstance(t, Fraction)
                     else _bracket(t, ctx))
    return out


def _diag_qpow(tj, coeff, ctx):
    """diag(q^(coeff*m)) over the weights of the spin-tj/2 irrep."""
    out = mat_zeros(tj + 1)
    for i, tm in enumerate(_weights(tj)):
        out[i, i] = ctx.qpow(Fraction(coeff * tm, 2))
    return out


def irrep_operators(j, ctx):
    """Matrices (j0, jp, jm) of the spin-j irreducible representation."""
    return _irrep_operators(_spin(j), ctx)


def _irrep_operators(tj, ctx):
    # J- is the transpose of J+ entry for entry
    j0, jp = mat_zeros(tj + 1), mat_zeros(tj + 1)
    for i, tm in enumerate(_weights(tj)):
        j0[i, i] = ctx.mp.mpf(tm) / 2
        if i:  # the weight falls by one unit from index i - 1 to i
            jp[i - 1, i] = ctx.mp.sqrt(_bracket(tj - tm, ctx)
                                       * _bracket(tj + tm + 2, ctx))
    return j0, jp, jp.T


def casimir_matrix(jm, basis, ctx):
    """C = J- J+ + [J0 + 1/2]^2; equals [j+1/2]^2 on the spin-j irrep."""
    jp = jm.T
    shift = _diag_qnum(basis, lambda tm: tm + 1, ctx)
    return jm @ jp + shift @ shift


def closed_power_lowering(j, r, ctx):
    """Matrix of J-^r from the closed-form matrix elements."""
    tj = _spin(j)
    out = mat_zeros(tj + 1)
    # index i holds m = j - i, and J-^r vanishes on it when j + m < r
    for i in range(tj - r + 1):
        up = tj - i
        out[i + r, i] = ctx.mp.sqrt(
            q_factorial(up, ctx) * q_factorial(i + r, ctx)
            / (q_factorial(i, ctx) * q_factorial(up - r, ctx)))
    return out


def operator_power_check(j, r, ctx):
    """Max deviation between matrix powers of J+- and their closed forms,
    J+^r being the adjoint of J-^r."""
    _, jp, jm = irrep_operators(j, ctx)
    lowering = closed_power_lowering(j, r, ctx)
    dev_m = mat_max_abs(mat_power(jm, r) - lowering)
    dev_p = mat_max_abs(mat_power(jp, r) - lowering.T)
    return max(dev_m, dev_p)


# ---------------------------------------------------------------------------
# ladder-operator identities on a representation
# ---------------------------------------------------------------------------

def scalar_identity_residual(r, a, ctx):
    """Residual of [r][a-(r+1)] + [a] = [r+1][a-r] and its sign mirror."""
    tr, ta = doubled(r), doubled(a)
    b = functools.partial(_bracket, ctx=ctx)  # b(2x) is [x]
    lhs1 = b(tr) * b(ta - tr - 2) + b(ta)
    rhs1 = b(tr + 2) * b(ta - tr)
    lhs2 = b(tr) * b(ta + tr + 2) + b(ta)
    rhs2 = b(tr + 2) * b(ta + tr)
    return max(abs(lhs1 - rhs1), abs(lhs2 - rhs2))


def lemma1_suite(basis, operators, ctx):
    """Max residual of the ladder-reordering identities on a
    representation: ``TensorBasis(j, 0)`` with its ``irrep_operators``,
    or a ``TensorBasis`` with its ``coproduct_operators``.

    Checked for both ladder directions and r = 1, 2, 3:
      B^r A = A (B +- I)^r
      [nu B + eta] A^r = A^r [nu B + eta +- nu r]
      [B, A^r] = +- r A^r
      [A+-, A-+^r] = +- A-+^(r-1) [r][2B -+ (r-1)]
    """
    b, jp, jm = operators
    eye = mat_eye(basis.dim)
    worst = 0
    for sign, a_op, a_other in ((1, jp, jm), (-1, jm, jp)):
        for r in range(1, 4):
            a_pow = mat_power(a_op, r)
            lhs = mat_power(b, r) @ a_op
            rhs = a_op @ mat_power(b + sign * eye, r)
            worst = max(worst, mat_max_abs(lhs - rhs))
            # on doubled weights; nu = 1/2 leaves the half-integer lattice
            for nu, eta in ((1, 0), (2, 0), (2, 1), (Fraction(1, 2), -1)):
                left = _diag_qnum(basis, lambda tm: nu * tm + 2 * eta,
                                  ctx) @ a_pow
                right = a_pow @ _diag_qnum(
                    basis, lambda tm: nu * (tm + 2 * sign * r) + 2 * eta, ctx)
                worst = max(worst, mat_max_abs(left - right))
            lhs = commutator(b, a_pow)
            rhs = sign * r * a_pow
            worst = max(worst, mat_max_abs(lhs - rhs))
            other_pow = mat_power(a_other, r)
            lhs = commutator(a_op, other_pow)
            rhs = (sign * mat_power(a_other, r - 1)
                   @ (_diag_qnum(basis, lambda tm: 2 * tm - 2 * sign * (r - 1),
                                 ctx) * _bracket(2 * r, ctx)))
            worst = max(worst, mat_max_abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# coproduct and projection operators on the tensor product
# ---------------------------------------------------------------------------

def coproduct_operators(j1, j2, ctx):
    """Tensor-product matrices (j0, jp, jm) from the coproduct.

    Delta(J0) = J0 x 1 + 1 x J0 and
    Delta(J+-) = J+- x q^J0 + q^-J0 x J+-.
    Built once per context and returned read-only.
    """
    return _coproduct(_spin(j1), _spin(j2), ctx)


def _coproduct(tj1, tj2, ctx):
    return ctx._memo(("coproduct", tj1, tj2),
                     lambda: _coproduct_operators(tj1, tj2, ctx))


def _coproduct_operators(tj1, tj2, ctx):
    j0_1, jp_1, _ = _irrep_operators(tj1, ctx)
    j0_2, jp_2, _ = _irrep_operators(tj2, ctx)
    e1 = mat_eye(tj1 + 1)
    e2 = mat_eye(tj2 + 1)
    qp_2 = _diag_qpow(tj2, 1, ctx)
    qm_1 = _diag_qpow(tj1, -1, ctx)
    j0 = _kron(j0_1, e2) + _kron(e1, j0_2)
    jp = _kron(jp_1, qp_2) + _kron(qm_1, jp_2)
    # Delta(J-) is the transpose of Delta(J+), as q^J0 is diagonal
    return j0.read_only(), jp.read_only(), jp.T.read_only()


def coproduct_power_binomial(j1, j2, r, ctx, sign=-1):
    """q-binomial expansion of Delta(J+-)^r on the tensor product.

    Delta(J+-)^r = sum_l [r]!/([l]![r-l]!) J+-^l q^(-(r-l)J0) x J+-^(r-l) q^(l J0).
    """
    tj1, tj2 = _spin(j1), _spin(j2)
    a1 = _irrep_operators(tj1, ctx)[2 if sign < 0 else 1]
    a2 = _irrep_operators(tj2, ctx)[2 if sign < 0 else 1]
    total = mat_zeros((tj1 + 1) * (tj2 + 1))
    for l in range(r + 1):
        coeff = (q_factorial(r, ctx)
                 / (q_factorial(l, ctx) * q_factorial(r - l, ctx)))
        left = mat_power(a1, l) @ _diag_qpow(tj1, -(r - l), ctx)
        right = mat_power(a2, r - l) @ _diag_qpow(tj2, l, ctx)
        total = total + _kron(left, right) * coeff
    return total


def projector_extremal(j, basis, ctx):
    """Extremal projector P^j_jj onto the highest-weight state of spin j.

    P = sum_r (-1)^r [2j+1]!/([r]![2j+r+1]!) J-^r J+^r with the coproduct
    operators; the sum terminates when J+^r vanishes on the tensor space.
    Built once per context and returned read-only.
    """
    return _extremal(doubled(j), basis, ctx)


def _extremal(tj, basis, ctx):
    return ctx._memo(
        ("projector", tj, basis.tj1, basis.tj2),
        lambda: _projector_extremal(tj, basis, ctx).read_only())


def _projector_extremal(tj, basis, ctx):
    _, jp, _ = _coproduct(basis.tj1, basis.tj2, ctx)
    top = q_factorial(tj + 1, ctx)

    def coeff(r):
        return ((-1) ** r * top
                / (q_factorial(r, ctx) * q_factorial(tj + r + 1, ctx)))

    # the r = 0 term is the identity; J- is the transpose of J+ entry for
    # entry, so J-^r J+^r is (J+^r)^T J+^r
    total = mat_eye(basis.dim) * coeff(0)
    jp_pow, r = jp, 1
    while mat_max_abs(jp_pow) != 0:
        total = total + (jp_pow.T @ jp_pow) * coeff(r)
        r += 1
        jp_pow = jp @ jp_pow
    return total


def projector_general(j, m, mprime, basis, ctx):
    """General projector P^j_{m m'} built by lowering the extremal one.

    Satisfies P^j_{m m'} P^j'_{m' m''} = delta_{j j'} P^j_{m m''} and
    (P^j_{m m'})^dagger = P^j_{m' m}.
    """
    return _general(doubled(j), doubled(m), doubled(mprime), basis, ctx)


def _general(tj, tm, tmprime, basis, ctx):
    if (tj - tm) % 2 or (tj - tmprime) % 2:
        raise QDomainError("j - m must be an integer")
    _, jp, jm = _coproduct(basis.tj1, basis.tj2, ctx)
    p_top = _extremal(tj, basis, ctx)

    def norm(t):
        return ctx.mp.sqrt(q_factorial((tj + t) // 2, ctx)
                           / (q_factorial(tj, ctx)
                              * q_factorial((tj - t) // 2, ctx)))

    return (mat_power(jm, (tj - tm) // 2) @ p_top
            @ mat_power(jp, (tj - tmprime) // 2)) * (norm(tm) * norm(tmprime))


# ---------------------------------------------------------------------------
# matrix-level oracles for the Clebsch-Gordan coefficients
# ---------------------------------------------------------------------------

def _unit_vector(basis, tm1, tm2):
    """Product basis vector |j1 m1>|j2 m2>, a one-column matrix."""
    return SparseMatrix((basis.dim, 1), {basis.index(tm1, tm2): {0: 1}})


def oracle_cgc(key, ctx):
    """Coefficient <j1 m1, j2 m2 | j m> from the projection operator.

    |j m> = P^j_{m j} v / sqrt(<v|P^j_{j j}|v>) with the seed vector
    v = |j1 j1>|j2 j-j1>, which fixes the standard positive-stretched
    sign convention; the coefficient is the (m1, m2) component.

    Spin cap: 4 at 50 digits.  The extremal projector's alternating sum
    over r cancels, losing about 8 digits per unit of spin.  Over
    <j 0, j 0|J 0> at q = 0.5 and precision 50, the worst relative gap to
    ``cgc_racah`` is 1.7e-50 at j = 4 and 1.6e-38 at j = 5, past
    ``ctx.tol`` = 1e-40.  ``oracle_cgc_lowering`` covers higher spins.
    """
    if not selection_rules(key):
        return ctx.to_mpf(0)
    tj1, tm1, tj2, tm2, tj, tm = key.twice
    basis = TensorBasis(twice=(tj1, tj2))
    v = _unit_vector(basis, tj1, tj - tj1)
    p_top = _extremal(tj, basis, ctx)
    norm_sq = (v.T @ (p_top @ v))[0, 0]
    p_mj = _general(tj, tm, tj, basis, ctx)
    coupled = (p_mj @ v) / ctx.mp.sqrt(norm_sq)
    return coupled[basis.index(tm1, tm2), 0]


def coupled_states(j1, j2, ctx):
    """All coupled vectors |j m> built by orthogonalization plus lowering.

    Highest-weight vectors are obtained top-down: the weight space m = j
    minus the span of the already-known |j' j> for j' > j leaves a single
    direction, whose sign is fixed by a positive overlap with
    |j1 j1>|j2 j-j1>.  Lower m follow from the coproduct lowering
    operator.  Returns {(2j, 2m): vector}, each a one-column matrix,
    built once per context and handed out read-only.
    """
    return _coupled(_spin(j1), _spin(j2), ctx)


def _coupled(tj1, tj2, ctx):
    return ctx._memo(("coupled", tj1, tj2),
                     lambda: _coupled_states(tj1, tj2, ctx))


def _coupled_states(tj1, tj2, ctx):
    basis = TensorBasis(twice=(tj1, tj2))
    _, _, jm = _coproduct(tj1, tj2, ctx)
    states = {}
    for tj in range(tj1 + tj2, abs(tj1 - tj2) - 1, -2):
        higher = [states[(th, tj)] for th in range(tj + 2, tj1 + tj2 + 1, 2)]
        best = None
        best_norm = 0
        for tm1 in range(max(-tj1, tj - tj2), min(tj1, tj + tj2) + 1, 2):
            w = _unit_vector(basis, tm1, tj - tm1)
            for h in higher:
                w = w - h * (h.T @ w)[0, 0]
            norm = ctx.mp.sqrt((w.T @ w)[0, 0])
            if norm > best_norm:
                best, best_norm = w, norm
        top = best / best_norm
        if top[basis.index(tj1, tj - tj1), 0] < 0:
            top = top * -1
        states[(tj, tj)] = top
        vec = top
        for tm in range(tj, -tj, -2):
            amp = ctx.mp.sqrt(_bracket(tj + tm, ctx)
                              * _bracket(tj - tm + 2, ctx))
            vec = (jm @ vec) / amp
            states[(tj, tm - 2)] = vec
    return MappingProxyType({k: v.read_only() for k, v in states.items()})


def oracle_cgc_lowering(key, ctx):
    """Second oracle: coefficient from orthogonalized, lowered coupled states."""
    if not selection_rules(key):
        return ctx.to_mpf(0)
    tj1, tm1, tj2, tm2, tj, tm = key.twice
    basis = TensorBasis(twice=(tj1, tj2))
    return _coupled(tj1, tj2, ctx)[(tj, tm)][basis.index(tm1, tm2), 0]
