"""Identity-verification suites shared by the test battery and the CLI.

Each suite function sweeps one family of identities and returns a list
of :class:`CheckResult` records (name, worst residual, tolerance).  The
suites are parameterized by spin caps, deformation parameters and
precision so the CLI can run a quick desk-scale pass while the
acceptance tests run the full stated grids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .halfint import HalfInt, halfint, halfint_range
from .qcore import QContext, qnum
from .qhyper import (
    HyperSeriesSpec,
    SeriesIllPosed,
    closed_sum_dixon,
    closed_sum_negative,
    closed_sum_positive,
    closed_sum_vandermonde,
    connection_pair,
    dixon_spec,
    eval_basic,
    eval_terminating,
    negative_spec,
    transform_141,
    transform_142,
    vandermonde_spec,
)
from . import repsu
from .cgc import (
    CgcKey,
    SYMMETRIES,
    admissible_keys,
    apply_symmetry,
    cgc_racah,
    classical_parity_zero_value,
    compute,
    recurrence_m_residual,
    special_value,
)
from .qhahn import (
    HahnParams,
    cgc_from_hahn,
    gram_entry,
    hahn_difference_residual,
    hahn_eval,
    hahn_norm_sq,
    hahn_ttrr_residual,
    recurrence_j_residual,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: object
    tolerance: float

    @property
    def passed(self):
        return self.residual < self.tolerance


def _ctx(q, precision):
    return QContext(q=str(q), precision=precision)


def _spin_pool(cap):
    return halfint_range(0, halfint(cap))


def _sweep(contexts, j_cap):
    """(ctx, key) for every admissible key with both spins up to j_cap,
    per context."""
    pool = _spin_pool(j_cap)
    for ctx in contexts:
        for j1 in pool:
            for j2 in pool:
                for key in admissible_keys(j1, j2):
                    yield ctx, key


# ---------------------------------------------------------------------------
# series identities
# ---------------------------------------------------------------------------

def qhyper_suite(precision=50, samples=200, seed=20240901, tolerance=1e-35):
    """Summation formulas, 3F2 rewrites and the basic-series connection."""
    rng = random.Random(seed)
    checks = []

    worst = 0
    for q in ("0.3", "0.5", "0.7", "0.9"):
        ctx = _ctx(q, precision)
        for sign in (1, -1):
            for n in range(0, 7):
                for b in range(1, 13):
                    for c in range(1, 13):
                        series = eval_terminating(
                            vandermonde_spec(n, b, c, sign), ctx)
                        closed = closed_sum_vandermonde(n, b, c, sign, ctx)
                        scale = max(abs(series), 1)
                        worst = max(worst, abs(series - closed) / scale)
                        if c > b and n < min(b, c):
                            pos = closed_sum_positive(n, b, c, sign, ctx)
                            worst = max(worst,
                                        abs(series - pos) / scale)
                        if b > c and n < min(b, c):
                            neg_series = eval_terminating(
                                negative_spec(n, b, c, sign), ctx)
                            neg = closed_sum_negative(n, b, c, sign, ctx)
                            nscale = max(abs(neg_series), 1)
                            worst = max(worst,
                                        abs(neg_series - neg) / nscale)
    checks.append(CheckResult("vandermonde_summations", worst, tolerance))

    worst = 0
    dixon_grid = ([HalfInt(Fraction(t, 2)) for t in range(1, 13)]
                  + [HalfInt(t) for t in range(7, 13)])
    for q in ("0.3", "0.5", "0.7", "0.9"):
        ctx = _ctx(q, precision)
        for n in range(0, 7):
            for b in dixon_grid:
                for c in dixon_grid:
                    series = eval_terminating(dixon_spec(n, b, c), ctx)
                    closed = closed_sum_dixon(n, b, c, ctx)
                    worst = max(worst, abs(series - closed))
    checks.append(CheckResult("dixon_summation", worst, tolerance))

    worst = 0
    count = 0
    contexts = {q: _ctx(q, precision) for q in ("0.3", "0.5", "0.7", "0.9")}
    while count < samples:
        ctx = contexts[rng.choice(tuple(contexts))]
        n = rng.randint(0, 5)
        a, b, d, e = (rng.randint(1, 16) for _ in range(4))  # doubled
        sign = rng.choice((1, -1))
        spec = HyperSeriesSpec(twice=((-2 * n, a, b), (d, e),
                                      sign * (a + b - 2 * n - d - e + 2)))
        try:
            base = eval_terminating(spec, ctx)
            scale = max(abs(base), 1)
            for transform in (transform_142, transform_141):
                new, pre = transform(spec)
                rewritten = pre.value(ctx) * eval_terminating(new, ctx)
                worst = max(worst, abs(base - rewritten) / scale)
            flipped = eval_terminating(spec.reciprocal(),
                                       ctx.reciprocal())
            worst = max(worst, abs(base - flipped) / scale)
        except SeriesIllPosed:
            continue
        count += 1
    checks.append(CheckResult("transform_rewrites", worst, tolerance))

    # the base change q -> sqrt(q) is exact for these decimal squares
    worst = 0
    for q, sq in (("0.25", "0.5"), ("0.49", "0.7"), ("0.81", "0.9")):
        ctx = _ctx(q, precision)
        ctx_sqrt = _ctx(sq, precision)
        for _ in range(17):
            n = rng.randint(0, 5)
            num = (-n, rng.randint(1, 8))
            den = (rng.randint(1, 8),)
            z_exp = rng.randint(0, 6)
            basic, f_spec = connection_pair(num, den, z_exp, ctx)
            lhs = eval_basic(basic, ctx)
            rhs = eval_terminating(f_spec, ctx_sqrt)
            worst = max(worst, abs(lhs - rhs))
    checks.append(CheckResult("basic_series_connection", worst, tolerance))

    worst = 0
    for q in ("0.5", "0.7"):
        ctx = _ctx(q, precision)
        for _ in range(50):
            r = rng.randint(0, 8)
            a = HalfInt(Fraction(rng.randint(-16, 16), 2))
            worst = max(worst, repsu.scalar_identity_residual(r, a, ctx))
    checks.append(CheckResult("ladder_scalar_identity", worst, tolerance))
    return checks


# ---------------------------------------------------------------------------
# representation-level identities
# ---------------------------------------------------------------------------

def _weight_cols_max(mat, basis, m):
    """Largest entry over the columns of total weight m1 + m2 = m."""
    worst = 0
    for c, weight in enumerate(basis.weights):
        if weight == m:
            for r in range(basis.dim):
                worst = max(worst, abs(mat[r, c]))
    return worst


def repsu_suite(precision=50, qs=("0.5", "0.7"), j_cap="3/2",
                tolerance=1e-35):
    """Commutators, Casimir, ladder powers, Lemma identities, projectors."""
    checks = []
    j_cap = halfint(j_cap)

    worst_comm = 0
    worst_pow = 0
    worst_lemma = 0
    worst_cas = 0
    for q in qs:
        ctx = _ctx(q, precision)
        for j in _spin_pool(j_cap):
            basis = repsu.IrrepBasis(j)
            j0, jp, jm = repsu.irrep_operators(j, ctx)
            worst_comm = max(worst_comm, repsu.mat_max_abs(
                repsu.commutator(j0, jp) - jp))
            worst_comm = max(worst_comm, repsu.mat_max_abs(
                repsu.commutator(j0, jm) + jm))
            two_j0 = repsu._diag_qnum(basis, lambda m: 2 * m, ctx)
            worst_comm = max(worst_comm, repsu.mat_max_abs(
                repsu.commutator(jp, jm) - two_j0))
            cas = repsu.casimir_matrix(jm, basis, ctx)
            eig = qnum(j + HalfInt("1/2"), ctx) ** 2
            worst_cas = max(worst_cas, repsu.mat_max_abs(
                cas - repsu.mat_eye(basis.dim) * eig))
            for op in (j0, jp, jm):
                worst_cas = max(worst_cas, repsu.mat_max_abs(
                    repsu.commutator(cas, op)))
            for r in range((2 * j).as_int() + 2):
                worst_pow = max(worst_pow,
                                repsu.operator_power_check(j, r, ctx))
            if j > 0:
                worst_lemma = max(worst_lemma, repsu.lemma1_suite(
                    basis, (j0, jp, jm), ctx))
        for j1, j2 in ((HalfInt("1/2"), HalfInt(1)), (HalfInt(1), j_cap)):
            worst_lemma = max(worst_lemma, repsu.lemma1_suite(
                repsu.TensorBasis(j1, j2),
                repsu.coproduct_operators(j1, j2, ctx), ctx))
    checks.append(CheckResult("irrep_commutators", worst_comm, tolerance))
    checks.append(CheckResult("casimir", worst_cas, tolerance))
    checks.append(CheckResult("ladder_power_closed_forms", worst_pow,
                              tolerance))
    checks.append(CheckResult("lemma_identities", worst_lemma, tolerance))

    worst_cop = 0
    worst_proj = 0
    for q in qs:
        ctx = _ctx(q, precision)
        pairs = ((HalfInt("1/2"), HalfInt("1/2")),
                 (HalfInt("1/2"), HalfInt(1)), (HalfInt(1), HalfInt(1)))
        for j1, j2 in pairs:
            basis = repsu.TensorBasis(j1, j2)
            j0, jp, jm = repsu.coproduct_operators(j1, j2, ctx)
            worst_cop = max(worst_cop, repsu.mat_max_abs(
                repsu.commutator(j0, jp) - jp))
            two_j0 = repsu._diag_qnum(basis, lambda m: 2 * m, ctx)
            worst_cop = max(worst_cop, repsu.mat_max_abs(
                repsu.commutator(jp, jm) - two_j0))
            for r in range(4):
                for sign, op in ((1, jp), (-1, jm)):
                    expanded = repsu.coproduct_power_binomial(
                        j1, j2, r, ctx, sign=sign)
                    worst_cop = max(worst_cop, repsu.mat_max_abs(
                        repsu.mat_power(op, r) - expanded))
            # the projector operators act block-by-block in the total
            # weight, so idempotence, completeness and the composition
            # law are checked on the columns of the relevant weight
            complete = {}
            projectors = {}
            for j in halfint_range(abs(j1 - j2), j1 + j2):
                p_top = repsu.projector_extremal(j, basis, ctx)
                worst_proj = max(worst_proj, _weight_cols_max(
                    p_top @ p_top - p_top, basis, j))
                worst_proj = max(worst_proj, repsu.mat_max_abs(
                    p_top.T - p_top))
                for m in halfint_range(-j, j):
                    projectors[(j, m)] = repsu.projector_general(
                        j, m, m, basis, ctx)
                    if m in complete:
                        complete[m] = complete[m] + projectors[(j, m)]
                    else:
                        complete[m] = projectors[(j, m)]
            eye = repsu.mat_eye(basis.dim)
            for m, total in complete.items():
                worst_proj = max(worst_proj, _weight_cols_max(
                    total - eye, basis, m))
            j_lo = abs(j1 - j2)
            j_hi = j1 + j2
            if j_hi > j_lo:
                m = j_lo
                cross = projectors[(j_lo, m)] @ projectors[(j_hi, m)]
                worst_proj = max(worst_proj, _weight_cols_max(
                    cross, basis, m))
                p_ab = repsu.projector_general(j_hi, j_hi - 1, m,
                                               basis, ctx)
                p_ba = repsu.projector_general(j_hi, m, j_hi - 1,
                                               basis, ctx)
                worst_proj = max(worst_proj, repsu.mat_max_abs(
                    p_ab.T - p_ba))
                worst_proj = max(worst_proj, _weight_cols_max(
                    p_ab @ projectors[(j_hi, m)] - p_ab, basis, m))
    checks.append(CheckResult("coproduct_algebra", worst_cop, tolerance))
    checks.append(CheckResult("projector_laws", worst_proj, tolerance))
    return checks


# ---------------------------------------------------------------------------
# coupling-coefficient suites
# ---------------------------------------------------------------------------

def cgc_formula_suite(precision=50, qs=("0.3", "0.5", "0.9"), j_cap=3,
                      tolerance=1e-35):
    """Pairwise agreement of every closed form and special value on the
    full key sweep: each crosscheck evaluates the distinct computations
    among the closed forms once (``cgc.compute``)."""
    worst = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        worst = max(worst, compute(key, ctx, mode="crosscheck").deviation)
    return [CheckResult("cross_formula_agreement", worst, tolerance)]


def cgc_oracle_suite(precision=50, qs=("0.5", "0.9"), j_cap="3/2",
                     tolerance=1e-30):
    """cgc_racah against both matrix-level constructions."""
    worst_proj = 0
    worst_low = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        ref = cgc_racah(key, ctx)
        worst_proj = max(worst_proj, abs(ref - repsu.oracle_cgc(key, ctx)))
        worst_low = max(worst_low,
                        abs(ref - repsu.oracle_cgc_lowering(key, ctx)))
    return [CheckResult("projector_oracle", worst_proj, tolerance),
            CheckResult("lowering_oracle", worst_low, tolerance)]


def unitarity_suite(precision=50, qs=("0.5", "0.9"), j_cap=3,
                    tolerance=1e-35):
    """Row and column orthonormality of the per-weight coupling blocks."""
    worst = 0
    pool = _spin_pool(j_cap)
    for q in qs:
        ctx = _ctx(q, precision)
        for j1 in pool:
            for j2 in pool:
                for m in halfint_range(-(j1 + j2), j1 + j2):
                    m1s = [m1 for m1 in halfint_range(-j1, j1)
                           if abs(m - m1) <= j2]
                    js = [j for j in halfint_range(abs(j1 - j2), j1 + j2)
                          if abs(m) <= j]
                    block = [[cgc_racah(
                        CgcKey(j1, m1, j2, m - m1, j, m), ctx)
                        for j in js] for m1 in m1s]
                    # columns, then rows: each dot product against 1 for
                    # a vector with itself and 0 for two distinct ones
                    for vectors in (list(zip(*block)), block):
                        for x in vectors:
                            for y in vectors:
                                dot = sum(u * v for u, v in zip(x, y))
                                worst = max(worst, abs(dot - (x is y)))
    return [CheckResult("unitarity_blocks", worst, tolerance)]


def _random_admissible_key(rng, j_cap):
    pool = _spin_pool(j_cap)
    j1 = rng.choice(pool)
    j2 = rng.choice(pool)
    j = rng.choice(halfint_range(abs(j1 - j2), j1 + j2))
    m = rng.choice(halfint_range(-j, j))
    m1 = rng.choice([m1 for m1 in halfint_range(-j1, j1) if abs(m - m1) <= j2])
    return CgcKey(j1, m1, j2, m - m1, j, m)


def symmetry_suite(precision=50, q="0.5", j_cap=3, samples=100,
                   seed=20240902, tolerance=1e-35):
    """The seven label symmetries, evaluating both bases explicitly."""
    rng = random.Random(seed)
    ctx = _ctx(q, precision)
    ctx_flip = ctx.reciprocal()
    checks = []
    for name in SYMMETRIES:
        worst = 0
        for _ in range(samples):
            key = _random_admissible_key(rng, j_cap)
            descriptor = apply_symmetry(key, name)
            other = ctx_flip if descriptor.q_flip else ctx
            lhs = cgc_racah(key, ctx)
            rhs = (descriptor.prefactor(ctx)
                   * cgc_racah(descriptor.key, other))
            worst = max(worst, abs(lhs - rhs))
        checks.append(CheckResult(f"symmetry_{name}", worst, tolerance))
    return checks


def special_value_suite(precision=50, qs=("0.5", "0.9"), j_cap=3,
                        dixon_cap=4, tolerance=1e-35):
    """Every special value against the general formula."""
    worst = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        sv = special_value(key, ctx)
        if sv is not None:
            worst = max(worst, abs(sv - cgc_racah(key, ctx)))
    checks = [CheckResult("special_value_patterns", worst, tolerance)]

    ctx1 = _ctx(1, precision)
    worst = 0
    for tj1 in range(0, dixon_cap + 1):
        for tj2 in range(0, dixon_cap + 1):
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            for j in halfint_range(abs(j1 - j2), j1 + j2):
                key = CgcKey(j1, 0, j2, 0, j, 0)
                closed = classical_parity_zero_value(j1, j2, j, ctx1)
                worst = max(worst, abs(closed - cgc_racah(key, ctx1)))
    checks.append(CheckResult("dixon_classical_m0", worst, tolerance))
    return checks


def recurrence_suite(precision=50, qs=("0.5", "0.7"), j_cap=2,
                     tolerance=1e-30):
    """Both three-term recurrences over all interior keys."""
    worst_j = 0
    worst_m = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        if key.j != 0:
            worst_j = max(worst_j, recurrence_j_residual(key, ctx))
        worst_m = max(worst_m, recurrence_m_residual(key, ctx))
    return [CheckResult("recurrence_j", worst_j, tolerance),
            CheckResult("recurrence_m", worst_m, tolerance)]


# ---------------------------------------------------------------------------
# q-Hahn suites
# ---------------------------------------------------------------------------

HAHN_FAMILIES = ((4, 1, 1), (5, 1, 2), (6, "1/2", "3/2"))


def hahn_suite(precision=50, qs=("0.5", "0.9"), families=HAHN_FAMILIES,
               tolerance=1e-30):
    """Orthogonality, norms, both forms, recurrence and difference data."""
    worst_gram = 0
    worst_forms = 0
    worst_ttrr = 0
    worst_diff = 0
    for q in qs:
        ctx = _ctx(q, precision)
        for (cap_n, alpha, beta) in families:
            norms = [hahn_norm_sq(HahnParams(n, cap_n, alpha, beta), ctx)
                     for n in range(cap_n)]
            for n in range(cap_n):
                params = HahnParams(n, cap_n, alpha, beta)
                for m in range(n, cap_n):
                    entry = gram_entry(
                        params, HahnParams(m, cap_n, alpha, beta), ctx)
                    if m == n:
                        worst_gram = max(worst_gram,
                                         abs(entry / norms[n] - 1))
                    else:
                        scale = ctx.mp.sqrt(norms[n] * norms[m])
                        worst_gram = max(worst_gram, abs(entry) / scale)
                for s in range(cap_n):
                    va = hahn_eval(params, s, ctx, form="A")
                    vb = hahn_eval(params, s, ctx, form="B")
                    scale = max(abs(va), abs(vb), 1)
                    worst_forms = max(worst_forms, abs(va - vb) / scale)
                    worst_ttrr = max(worst_ttrr,
                                     hahn_ttrr_residual(params, s, ctx))
                    worst_diff = max(
                        worst_diff,
                        hahn_difference_residual(params, s, ctx))
    return [CheckResult("hahn_gram", worst_gram, tolerance),
            CheckResult("hahn_forms_agree", worst_forms, tolerance),
            CheckResult("hahn_ttrr", worst_ttrr, tolerance),
            CheckResult("hahn_difference_eq", worst_diff, tolerance)]


def connection_suite(precision=50, qs=("0.5", "0.9"), j_cap=2,
                     tolerance=1e-30):
    """Both coupling-to-polynomial routes against the closed form."""
    worst = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        ref = cgc_racah(key, ctx)
        for route in ("J2", "J1"):
            worst = max(worst, abs(cgc_from_hahn(key, ctx, route=route) - ref))
    return [CheckResult("hahn_connection_routes", worst, tolerance)]


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def classical_limit_suite(precision=50, j_cap="3/2", cgc_tolerance=1e-5,
                          qnum_tolerance=1e-6):
    """Values at q = 1 - 1e-6 against the q = 1 branch."""
    ctx_near = _ctx("0.999999", precision)
    ctx_one = _ctx(1, precision)
    worst_num = 0
    x = Fraction(-5)
    while x <= 5:
        worst_num = max(worst_num, abs(qnum(HalfInt(x), ctx_near)
                                       - ctx_near.to_mpf(x)))
        x += Fraction(1, 2)
    worst_cgc = 0
    for _, key in _sweep([ctx_near], j_cap):
        worst_cgc = max(worst_cgc, abs(cgc_racah(key, ctx_near)
                                       - cgc_racah(key, ctx_one)))
    return [CheckResult("classical_limit_cgc", worst_cgc, cgc_tolerance),
            CheckResult("classical_limit_qnum", worst_num, qnum_tolerance)]


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES = {
    "qhyper": qhyper_suite,
    "repsu": repsu_suite,
    "formulas": cgc_formula_suite,
    "oracle": cgc_oracle_suite,
    "unitarity": unitarity_suite,
    "symmetry": symmetry_suite,
    "special": special_value_suite,
    "recurrence": recurrence_suite,
    "hahn": hahn_suite,
    "connection": connection_suite,
    "limit": classical_limit_suite,
}

# lighter parameters for the CLI desk-scale run
_QUICK_OVERRIDES = {
    "qhyper": {"samples": 40},
    "formulas": {"j_cap": "3/2", "qs": ("0.5",)},
    "oracle": {"qs": ("0.5",)},
    "unitarity": {"qs": ("0.5",), "j_cap": 2},
    "symmetry": {"samples": 25, "j_cap": 2},
    "special": {"qs": ("0.5",), "dixon_cap": 3},
    "recurrence": {"j_cap": "3/2", "qs": ("0.5",)},
    "hahn": {"qs": ("0.5",)},
    "connection": {"qs": ("0.5",), "j_cap": "3/2"},
    "limit": {"j_cap": 1},
}


def run_suites(names=None, precision=50, quick=True, tolerance=None):
    """Run the selected suites and collect a machine-readable report;
    ``tolerance``, when given, replaces every check's tolerance."""
    names = list(SUITES) if not names else list(names)
    results = {}
    for name in names:
        fn = SUITES[name]
        kwargs = {"precision": precision}
        if quick:
            kwargs.update(_QUICK_OVERRIDES.get(name, {}))
        checks = fn(**kwargs)
        if tolerance is not None:
            checks = [CheckResult(c.name, c.residual, tolerance) for c in checks]
        results[name] = checks
    return results
