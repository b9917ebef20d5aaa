"""Sparse-matrix representations of the q-deformed angular momentum algebra.

Finite irreducible representations, their tensor products through the
coproduct, the extremal projection operator and two independent
matrix-level constructions of Clebsch-Gordan coefficients.  Matrices
and vectors leave out the entries that are zero by structure; the
entries they keep are mpmath reals of the :class:`QContext` (or exact
Python ints), so they inherit its configurable precision.

The commutation relations realized are [J0, J+-] = +-J+- and
[J+, J-] = [2 J0].
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .cgc import selection_rules
from .halfint import HalfInt, halfint, halfint_range
from .qcore import QDomainError, q_factorial, qnum


def _merged(a, b, op):
    """{k: op(a[k], b[k])} over the keys of either dict, 0 where absent."""
    return {k: op(a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys()}


def _dot(a, b):
    """Sum of a[k] * b[k] over the keys of both dicts, by k up, in the
    order a dense product adds its terms; the terms left out are exact
    zeros, so the sum is the dense one to the bit."""
    return sum(a[k] * b[k] for k in sorted(a.keys() & b.keys()))


class SparseVector(dict):
    """A vector as a dict from flat index to entry; an absent index
    reads 0."""

    def __missing__(self, i):
        return 0

    def __matmul__(self, other):
        return _dot(self, other)

    def __sub__(self, other):
        return SparseVector(_merged(self, other, operator.sub))

    def __neg__(self):
        return SparseVector({i: -x for i, x in self.items()})

    def __mul__(self, s):
        return SparseVector({i: x * s for i, x in self.items()})

    def __truediv__(self, s):
        return SparseVector({i: x / s for i, x in self.items()})


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

    def copy(self):
        return self._map(lambda x: x)

    def __mul__(self, s):
        return self._map(lambda x: x * s)

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
        if isinstance(other, SparseVector):
            return SparseVector({r: _dot(row, other)
                                 for r, row in self.rows.items()
                                 if row.keys() & other.keys()})
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


class IrrepBasis:
    """Weight basis |j m> of a spin-j irreducible representation.

    States are ordered by decreasing m (highest weight first); a state's
    weight is its m.
    """

    def __init__(self, j):
        self.j = halfint(j)
        if self.j < 0:
            raise QDomainError("spin must be nonnegative")
        self.states = list(reversed(halfint_range(-self.j, self.j)))
        self.weights = self.states
        self.dim = len(self.states)
        self._index = {m.twice: i for i, m in enumerate(self.states)}

    def index(self, m):
        return self._index[halfint(m).twice]


class TensorBasis:
    """Product basis |j1 m1>|j2 m2>, m1 outer (Kronecker order); a
    state's weight is m1 + m2."""

    def __init__(self, j1, j2):
        self.b1 = IrrepBasis(j1)
        self.b2 = IrrepBasis(j2)
        self.j1 = self.b1.j
        self.j2 = self.b2.j
        self.dim = self.b1.dim * self.b2.dim
        self.states = [(m1, m2) for m1 in self.b1.states for m2 in self.b2.states]
        self.weights = [m1 + m2 for m1, m2 in self.states]

    def index(self, m1, m2):
        return self.b1.index(m1) * self.b2.dim + self.b2.index(m2)


def mat_zeros(n):
    # exact Python 0 and 1 fills: an mpmath real of another context on the
    # left of a product or sum would round the result to its precision
    return SparseMatrix((n, n))


def mat_eye(n):
    return SparseMatrix((n, n), {i: {i: 1} for i in range(n)})


def mat_dagger(a):
    """Hermitian adjoint; all matrices here are real, so just transpose."""
    return a.T


def mat_max_abs(a):
    return max((abs(x) for x in a), default=0)


def mat_power(a, r):
    if r == 0:
        return mat_eye(a.shape[0])
    out = a.copy()
    for _ in range(r - 1):
        out = out @ a
    return out


def commutator(a, b):
    return a @ b - b @ a


def _diag_qnum(basis, form, ctx):
    """diag([form(m)]) over the basis weights m; form maps a weight to a
    HalfInt or a Fraction."""
    out = mat_zeros(basis.dim)
    for i, m in enumerate(basis.weights):
        out[i, i] = qnum(form(m), ctx)
    return out


def _diag_qpow(basis, coeff, ctx):
    """diag(q^(coeff*m)) over the basis weights."""
    out = mat_zeros(basis.dim)
    for i, m in enumerate(basis.states):
        out[i, i] = ctx.qpow(Fraction(coeff) * m.as_fraction())
    return out


def irrep_operators(j, ctx):
    """Matrices (j0, jp, jm) of the spin-j irreducible representation."""
    basis = IrrepBasis(j)
    j0 = mat_zeros(basis.dim)
    jp = mat_zeros(basis.dim)
    jm = mat_zeros(basis.dim)
    for i, m in enumerate(basis.states):
        j0[i, i] = ctx.to_mpf(m)
        if m < basis.j:
            amp = ctx.mp.sqrt(qnum(basis.j - m, ctx) * qnum(basis.j + m + 1, ctx))
            jp[basis.index(m + 1), i] = amp
        if m > -basis.j:
            amp = ctx.mp.sqrt(qnum(basis.j + m, ctx) * qnum(basis.j - m + 1, ctx))
            jm[basis.index(m - 1), i] = amp
    return j0, jp, jm


def casimir_matrix(jm, basis, ctx):
    """C = J- J+ + [J0 + 1/2]^2; equals [j+1/2]^2 on the spin-j irrep."""
    jp = mat_dagger(jm)
    half = Fraction(1, 2)
    shift = _diag_qnum(basis, lambda m: m.as_fraction() + half, ctx)
    return jm @ jp + shift @ shift


def closed_power_lowering(j, r, ctx):
    """Matrix of J-^r from the closed-form matrix elements."""
    basis = IrrepBasis(j)
    out = mat_zeros(basis.dim)
    for i, m in enumerate(basis.states):
        if m - r < -basis.j:
            continue
        amp = ctx.mp.sqrt(
            q_factorial((basis.j + m).as_int(), ctx)
            * q_factorial((basis.j - m).as_int() + r, ctx)
            / (q_factorial((basis.j - m).as_int(), ctx)
               * q_factorial((basis.j + m).as_int() - r, ctx)))
        out[basis.index(m - r), i] = amp
    return out


def operator_power_check(j, r, ctx):
    """Max deviation between matrix powers of J+- and their closed forms,
    J+^r being the adjoint of J-^r."""
    _, jp, jm = irrep_operators(j, ctx)
    lowering = closed_power_lowering(j, r, ctx)
    dev_m = mat_max_abs(mat_power(jm, r) - lowering)
    dev_p = mat_max_abs(mat_power(jp, r) - mat_dagger(lowering))
    return max(dev_m, dev_p)


# ---------------------------------------------------------------------------
# ladder-operator identities on a representation
# ---------------------------------------------------------------------------

def scalar_identity_residual(r, a, ctx):
    """Residual of [r][a-(r+1)] + [a] = [r+1][a-r] and its sign mirror."""
    r, a = halfint(r), halfint(a)
    lhs1 = qnum(r, ctx) * qnum(a - r - 1, ctx) + qnum(a, ctx)
    rhs1 = qnum(r + 1, ctx) * qnum(a - r, ctx)
    lhs2 = qnum(r, ctx) * qnum(a + r + 1, ctx) + qnum(a, ctx)
    rhs2 = qnum(r + 1, ctx) * qnum(a + r, ctx)
    return max(abs(lhs1 - rhs1), abs(lhs2 - rhs2))


def lemma1_suite(basis, operators, ctx):
    """Max residual of the ladder-reordering identities on a
    representation: an ``IrrepBasis`` with its ``irrep_operators``, or a
    ``TensorBasis`` with its ``coproduct_operators``.

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
            for nu, eta in ((1, 0), (2, 0), (2, 1), (Fraction(1, 2), -1)):
                left = _diag_qnum(basis, lambda m: nu * m + eta, ctx) @ a_pow
                right = a_pow @ _diag_qnum(
                    basis, lambda m: nu * m + eta + nu * sign * r, ctx)
                worst = max(worst, mat_max_abs(left - right))
            lhs = commutator(b, a_pow)
            rhs = sign * r * a_pow
            worst = max(worst, mat_max_abs(lhs - rhs))
            other_pow = mat_power(a_other, r)
            lhs = commutator(a_op, other_pow)
            rhs = (sign * mat_power(a_other, r - 1)
                   @ (_diag_qnum(basis, lambda m: 2 * m - sign * (r - 1), ctx)
                      * qnum(HalfInt(r), ctx)))
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
    basis = TensorBasis(j1, j2)
    return ctx._memo(("coproduct", basis.j1.twice, basis.j2.twice),
                     lambda: _coproduct_operators(basis, ctx))


def _coproduct_operators(basis, ctx):
    j0_1, jp_1, jm_1 = irrep_operators(basis.j1, ctx)
    j0_2, jp_2, jm_2 = irrep_operators(basis.j2, ctx)
    e1 = mat_eye(basis.b1.dim)
    e2 = mat_eye(basis.b2.dim)
    qp_2 = _diag_qpow(basis.b2, 1, ctx)
    qm_1 = _diag_qpow(basis.b1, -1, ctx)
    j0 = _kron(j0_1, e2) + _kron(e1, j0_2)
    jp = _kron(jp_1, qp_2) + _kron(qm_1, jp_2)
    jm = _kron(jm_1, qp_2) + _kron(qm_1, jm_2)
    return j0.read_only(), jp.read_only(), jm.read_only()


def coproduct_power_binomial(j1, j2, r, ctx, sign=-1):
    """q-binomial expansion of Delta(J+-)^r on the tensor product.

    Delta(J+-)^r = sum_l [r]!/([l]![r-l]!) J+-^l q^(-(r-l)J0) x J+-^(r-l) q^(l J0).
    """
    basis = TensorBasis(j1, j2)
    ops1 = irrep_operators(basis.j1, ctx)
    ops2 = irrep_operators(basis.j2, ctx)
    a1 = ops1[2] if sign < 0 else ops1[1]
    a2 = ops2[2] if sign < 0 else ops2[1]
    total = mat_zeros(basis.dim)
    for l in range(r + 1):
        coeff = (q_factorial(r, ctx)
                 / (q_factorial(l, ctx) * q_factorial(r - l, ctx)))
        left = mat_power(a1, l) @ _diag_qpow(basis.b1, -(r - l), ctx)
        right = mat_power(a2, r - l) @ _diag_qpow(basis.b2, l, ctx)
        total = total + _kron(left, right) * coeff
    return total


def projector_extremal(j, basis, ctx):
    """Extremal projector P^j_jj onto the highest-weight state of spin j.

    P = sum_r (-1)^r [2j+1]!/([r]![2j+r+1]!) J-^r J+^r with the coproduct
    operators; the sum terminates when J+^r vanishes on the tensor space.
    Built once per context and returned read-only.
    """
    j = halfint(j)
    return ctx._memo(
        ("projector", j.twice, basis.j1.twice, basis.j2.twice),
        lambda: _projector_extremal(j, basis, ctx).read_only())


def _projector_extremal(j, basis, ctx):
    _, jp, _ = coproduct_operators(basis.j1, basis.j2, ctx)
    two_j = (2 * j).as_int()
    top = q_factorial(two_j + 1, ctx)

    def coeff(r):
        return ((-1) ** r * top
                / (q_factorial(r, ctx) * q_factorial(two_j + r + 1, ctx)))

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
    j, m, mprime = halfint(j), halfint(m), halfint(mprime)
    _, jp, jm = coproduct_operators(basis.j1, basis.j2, ctx)
    p_top = projector_extremal(j, basis, ctx)
    left = ctx.mp.sqrt(q_factorial((j + m).as_int(), ctx)
                       / (q_factorial((2 * j).as_int(), ctx)
                          * q_factorial((j - m).as_int(), ctx)))
    right = ctx.mp.sqrt(q_factorial((j + mprime).as_int(), ctx)
                        / (q_factorial((2 * j).as_int(), ctx)
                           * q_factorial((j - mprime).as_int(), ctx)))
    return (mat_power(jm, (j - m).as_int()) @ p_top
            @ mat_power(jp, (j - mprime).as_int())) * (left * right)


# ---------------------------------------------------------------------------
# matrix-level oracles for the Clebsch-Gordan coefficients
# ---------------------------------------------------------------------------

def _unit_vector(basis, m1, m2):
    """Product basis vector |j1 m1>|j2 m2>."""
    return SparseVector({basis.index(m1, m2): 1})


def oracle_cgc(key, ctx):
    """Coefficient <j1 m1, j2 m2 | j m> from the projection operator.

    |j m> = P^j_{m j} v / sqrt(<v|P^j_{j j}|v>) with the seed vector
    v = |j1 j1>|j2 j-j1>, which fixes the standard positive-stretched
    sign convention; the coefficient is the (m1, m2) component.

    The extremal projector's alternating sum cancels, losing about 8
    digits per unit of spin.  Over <j 0, j 0|J 0> at q = 0.5 and precision
    50, the worst relative gap to ``cgc_racah`` is 1.7e-50 at j = 4 and
    1.6e-38 at j = 5, past ``ctx.tol``; at 50 digits this oracle gates
    spins up to 4 only.
    """
    if not selection_rules(key):
        return ctx.to_mpf(0)
    basis = TensorBasis(key.j1, key.j2)
    v = _unit_vector(basis, basis.j1, key.j - basis.j1)
    p_top = projector_extremal(key.j, basis, ctx)
    norm_sq = v @ (p_top @ v)
    p_mj = projector_general(key.j, key.m, key.j, basis, ctx)
    coupled = (p_mj @ v) / ctx.mp.sqrt(norm_sq)
    return coupled[basis.index(key.m1, key.m2)]


def coupled_states(j1, j2, ctx):
    """All coupled vectors |j m> built by orthogonalization plus lowering.

    Highest-weight vectors are obtained top-down: the weight space m = j
    minus the span of the already-known |j' j> for j' > j leaves a single
    direction, whose sign is fixed by a positive overlap with
    |j1 j1>|j2 j-j1>.  Lower m follow from the coproduct lowering
    operator.  Returns {(j, m): vector}.
    """
    basis = TensorBasis(j1, j2)
    _, _, jm = coproduct_operators(basis.j1, basis.j2, ctx)
    states = {}
    j_top = basis.j1 + basis.j2
    for j in reversed(halfint_range(abs(basis.j1 - basis.j2), j_top)):
        higher = [states[(jh, j)] for jh in halfint_range(j + 1, j_top)]
        best = None
        best_norm = 0
        for m1 in halfint_range(max(-basis.j1, j - basis.j2),
                                min(basis.j1, j + basis.j2)):
            w = _unit_vector(basis, m1, j - m1)
            for h in higher:
                w = w - h * (h @ w)
            norm = ctx.mp.sqrt(w @ w)
            if norm > best_norm:
                best, best_norm = w, norm
        top = best / best_norm
        if top[basis.index(basis.j1, j - basis.j1)] < 0:
            top = -top
        states[(j, j)] = top
        vec = top
        for m in reversed(halfint_range(-j + 1, j)):
            amp = ctx.mp.sqrt(qnum(j + m, ctx) * qnum(j - m + 1, ctx))
            vec = (jm @ vec) / amp
            states[(j, m - 1)] = vec
    return states


def oracle_cgc_lowering(key, ctx):
    """Second oracle: coefficient from orthogonalized, lowered coupled states."""
    if not selection_rules(key):
        return ctx.to_mpf(0)
    basis = TensorBasis(key.j1, key.j2)
    states = coupled_states(key.j1, key.j2, ctx)
    return states[(key.j, key.m)][basis.index(key.m1, key.m2)]
