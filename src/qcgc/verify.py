"""Identity-verification suites shared by the test battery and the CLI.

Each suite function sweeps one family of identities and returns a list
of :class:`CheckResult` records (name, worst residual, tolerance).  The
suites are parameterized by spin caps, deformation parameters and
precision so the CLI can run a quick desk-scale pass while the
acceptance tests run the full stated grids at fixed tolerances.  The
loops run on doubled labels, as ``CgcKey.twice`` holds them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .halfint import doubled
from .qcore import QContext, _bracket
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


def _gap(a, b):
    """|a - b| of two mpfs, or exactly 0, with no mpmath arithmetic, when
    they have the same bits: a normalised ``_mpf_`` is canonical, so equal
    tuples are equal values.  A worst residual, which starts at 0, comes
    out the same either way, since max(worst, 0) is worst."""
    if a._mpf_ == b._mpf_:
        return 0
    return abs(a - b)


def _worst_relative(worst, a, b):
    """The larger of ``worst`` and |a - b| / max(|a|, 1); the scale is
    worked out only when the gap is not 0."""
    gap = _gap(a, b)
    return max(worst, gap / max(abs(a), 1)) if gap else worst


def _spin_pool(cap):
    """Doubled spins from 0 up to cap, in whole steps."""
    # half steps would change the verify benchmark's work: left to its revision
    return range(0, doubled(cap) + 1, 2)


def _sweep(contexts, j_cap):
    """(ctx, key) for every admissible key with both spins up to j_cap,
    per context."""
    pool = _spin_pool(j_cap)
    for ctx in contexts:
        for tj1 in pool:
            for tj2 in pool:
                for key in admissible_keys(Fraction(tj1, 2), Fraction(tj2, 2)):
                    yield ctx, key


# ---------------------------------------------------------------------------
# series identities
# ---------------------------------------------------------------------------

def qhyper_suite(precision=50, samples=200, seed=20240901):
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
                        worst = _worst_relative(worst, series, closed)
                        if c > b and n < min(b, c):
                            pos = closed_sum_positive(n, b, c, sign, ctx)
                            worst = _worst_relative(worst, series, pos)
                        if b > c and n < min(b, c):
                            neg_series = eval_terminating(
                                negative_spec(n, b, c, sign), ctx)
                            neg = closed_sum_negative(n, b, c, sign, ctx)
                            worst = _worst_relative(worst, neg_series, neg)
    checks.append(CheckResult("vandermonde_summations", worst, 1e-35))

    worst = 0
    # whole labels as ints, which halfint.doubled reads fastest: the loop
    # reads each label thousands of times
    dixon_grid = [Fraction(t, 2) if t % 2 else t // 2
                  for t in (*range(1, 13), *range(14, 25, 2))]
    for q in ("0.3", "0.5", "0.7", "0.9"):
        ctx = _ctx(q, precision)
        for n in range(0, 7):
            for b in dixon_grid:
                for c in dixon_grid:
                    series = eval_terminating(dixon_spec(n, b, c), ctx)
                    closed = closed_sum_dixon(n, b, c, ctx)
                    worst = max(worst, _gap(series, closed))
    checks.append(CheckResult("dixon_summation", worst, 1e-35))

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
            for transform in (transform_142, transform_141):
                new, pre = transform(spec)
                rewritten = pre.value(ctx) * eval_terminating(new, ctx)
                worst = _worst_relative(worst, base, rewritten)
            flipped = eval_terminating(spec.reciprocal(),
                                       ctx.reciprocal())
            worst = _worst_relative(worst, base, flipped)
        except SeriesIllPosed:
            continue
        count += 1
    checks.append(CheckResult("transform_rewrites", worst, 1e-35))

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
            worst = max(worst, _gap(lhs, rhs))
    checks.append(CheckResult("basic_series_connection", worst, 1e-35))

    worst = 0
    for q in ("0.5", "0.7"):
        ctx = _ctx(q, precision)
        for _ in range(50):
            r = rng.randint(0, 8)
            a = Fraction(rng.randint(-16, 16), 2)
            worst = max(worst, repsu.scalar_identity_residual(r, a, ctx))
    checks.append(CheckResult("ladder_scalar_identity", worst, 1e-35))
    return checks


# ---------------------------------------------------------------------------
# representation-level identities
# ---------------------------------------------------------------------------

def _weight_cols_max(mat, basis, tm):
    """Largest entry over the columns of doubled total weight tm."""
    worst = 0
    for c, weight in enumerate(basis.weights):
        if weight == tm:
            for r in range(basis.dim):
                worst = max(worst, abs(mat[r, c]))
    return worst


def repsu_suite(precision=50):
    """Commutators, Casimir, ladder powers, Lemma identities, projectors,
    at q = 0.5 and 0.7 on spins up to 3/2."""
    checks = []
    half, j_cap = Fraction(1, 2), Fraction(3, 2)

    worst_comm = 0
    worst_pow = 0
    worst_lemma = 0
    worst_cas = 0
    for q in ("0.5", "0.7"):
        ctx = _ctx(q, precision)
        for tj in _spin_pool(j_cap):
            j = Fraction(tj, 2)
            basis = repsu.TensorBasis(twice=(tj, 0))
            j0, jp, jm = repsu.irrep_operators(j, ctx)
            worst_comm = max(worst_comm, repsu.mat_max_abs(
                repsu.commutator(j0, jp) - jp))
            worst_comm = max(worst_comm, repsu.mat_max_abs(
                repsu.commutator(j0, jm) + jm))
            two_j0 = repsu._diag_qnum(basis, lambda tm: 2 * tm, ctx)
            worst_comm = max(worst_comm, repsu.mat_max_abs(
                repsu.commutator(jp, jm) - two_j0))
            cas = repsu.casimir_matrix(jm, basis, ctx)
            eig = _bracket(tj + 1, ctx) ** 2
            worst_cas = max(worst_cas, repsu.mat_max_abs(
                cas - repsu.mat_eye(basis.dim) * eig))
            for op in (j0, jp, jm):
                worst_cas = max(worst_cas, repsu.mat_max_abs(
                    repsu.commutator(cas, op)))
            for r in range(tj + 2):
                worst_pow = max(worst_pow,
                                repsu.operator_power_check(j, r, ctx))
            if tj > 0:
                worst_lemma = max(worst_lemma, repsu.lemma1_suite(
                    basis, (j0, jp, jm), ctx))
        for j1, j2 in ((half, 1), (1, j_cap)):
            worst_lemma = max(worst_lemma, repsu.lemma1_suite(
                repsu.TensorBasis(j1, j2),
                repsu.coproduct_operators(j1, j2, ctx), ctx))
    checks.append(CheckResult("irrep_commutators", worst_comm, 1e-35))
    checks.append(CheckResult("casimir", worst_cas, 1e-35))
    checks.append(CheckResult("ladder_power_closed_forms", worst_pow, 1e-35))
    checks.append(CheckResult("lemma_identities", worst_lemma, 1e-35))

    worst_cop = 0
    worst_proj = 0
    for q in ("0.5", "0.7"):
        ctx = _ctx(q, precision)
        for j1, j2 in ((half, half), (half, 1), (1, 1)):
            basis = repsu.TensorBasis(j1, j2)
            j0, jp, jm = repsu.coproduct_operators(j1, j2, ctx)
            worst_cop = max(worst_cop, repsu.mat_max_abs(
                repsu.commutator(j0, jp) - jp))
            two_j0 = repsu._diag_qnum(basis, lambda tm: 2 * tm, ctx)
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
            zero = repsu.mat_zeros(basis.dim)
            t_lo, t_hi = abs(basis.tj1 - basis.tj2), basis.tj1 + basis.tj2
            for tj in range(t_lo, t_hi + 1, 2):
                j = Fraction(tj, 2)
                p_top = repsu.projector_extremal(j, basis, ctx)
                worst_proj = max(worst_proj, _weight_cols_max(
                    p_top @ p_top - p_top, basis, tj))
                worst_proj = max(worst_proj, repsu.mat_max_abs(
                    p_top.T - p_top))
                for tm in range(-tj, tj + 1, 2):
                    m = Fraction(tm, 2)
                    projectors[(tj, tm)] = repsu.projector_general(
                        j, m, m, basis, ctx)
                    complete[tm] = (complete.get(tm, zero)
                                    + projectors[(tj, tm)])
            eye = repsu.mat_eye(basis.dim)
            for tm, total in complete.items():
                worst_proj = max(worst_proj, _weight_cols_max(
                    total - eye, basis, tm))
            if t_hi > t_lo:
                cross = projectors[(t_lo, t_lo)] @ projectors[(t_hi, t_lo)]
                worst_proj = max(worst_proj, _weight_cols_max(
                    cross, basis, t_lo))
                j_hi, m_a, m_b = (Fraction(t, 2) for t in (t_hi, t_hi - 2, t_lo))
                p_ab = repsu.projector_general(j_hi, m_a, m_b, basis, ctx)
                p_ba = repsu.projector_general(j_hi, m_b, m_a, basis, ctx)
                worst_proj = max(worst_proj, repsu.mat_max_abs(
                    p_ab.T - p_ba))
                worst_proj = max(worst_proj, _weight_cols_max(
                    p_ab @ projectors[(t_hi, t_lo)] - p_ab, basis, t_lo))
    checks.append(CheckResult("coproduct_algebra", worst_cop, 1e-35))
    checks.append(CheckResult("projector_laws", worst_proj, 1e-35))
    return checks


# ---------------------------------------------------------------------------
# coupling-coefficient suites
# ---------------------------------------------------------------------------

def cgc_formula_suite(precision=50, qs=("0.3", "0.5", "0.9"), j_cap=3):
    """Pairwise agreement of every closed form and special value on the
    full key sweep: each crosscheck evaluates the distinct computations
    among the closed forms once (``cgc.compute``)."""
    worst = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        worst = max(worst, compute(key, ctx, mode="crosscheck").deviation)
    return [CheckResult("cross_formula_agreement", worst, 1e-35)]


def cgc_oracle_suite(precision=50, qs=("0.5", "0.9"), j_cap="3/2"):
    """cgc_racah against both matrix-level constructions.

    The projector oracle (``repsu.oracle_cgc``) has a spin cap of 4 at
    50 digits: the extremal projector's sum over r cancels, losing about
    8 digits per unit of spin, so at q = 0.5 its gap to ``cgc_racah`` is
    1.7e-50 at j = 4 and 1.6e-38 at j = 5, past ``ctx.tol`` = 1e-40.  The
    lowering oracle (``repsu.oracle_cgc_lowering``) covers higher spins.
    """
    worst_proj = 0
    worst_low = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        ref = cgc_racah(key, ctx)
        worst_proj = max(worst_proj, _gap(ref, repsu.oracle_cgc(key, ctx)))
        worst_low = max(worst_low,
                        _gap(ref, repsu.oracle_cgc_lowering(key, ctx)))
    return [CheckResult("projector_oracle", worst_proj, 1e-30),
            CheckResult("lowering_oracle", worst_low, 1e-30)]


def unitarity_suite(precision=50, qs=("0.5", "0.9"), j_cap=3):
    """Row and column orthonormality of the per-weight coupling blocks."""
    worst = 0
    pool = _spin_pool(j_cap)
    for q in qs:
        ctx = _ctx(q, precision)
        for tj1 in pool:
            for tj2 in pool:
                for tm in range(-(tj1 + tj2), tj1 + tj2 + 1, 2):
                    tm1s = [t for t in range(-tj1, tj1 + 1, 2)
                            if abs(tm - t) <= tj2]
                    tjs = [t for t in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                           if abs(tm) <= t]
                    block = [[cgc_racah(CgcKey(
                        twice=(tj1, tm1, tj2, tm - tm1, tj, tm)), ctx)
                        for tj in tjs] for tm1 in tm1s]
                    # columns, then rows: each dot product against 1 for
                    # a vector with itself and 0 for two distinct ones
                    for vectors in (list(zip(*block)), block):
                        for x in vectors:
                            for y in vectors:
                                dot = sum(u * v for u, v in zip(x, y))
                                worst = max(worst, abs(dot - (x is y)))
    return [CheckResult("unitarity_blocks", worst, 1e-35)]


def _random_admissible_key(rng, j_cap):
    pool = _spin_pool(j_cap)
    tj1 = rng.choice(pool)
    tj2 = rng.choice(pool)
    tj = rng.choice(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
    tm = rng.choice(range(-tj, tj + 1, 2))
    tm1 = rng.choice([t for t in range(-tj1, tj1 + 1, 2)
                      if abs(tm - t) <= tj2])
    return CgcKey(twice=(tj1, tm1, tj2, tm - tm1, tj, tm))


def symmetry_suite(precision=50, j_cap=3, samples=100, seed=20240902):
    """The seven label symmetries at q = 0.5, evaluating both bases."""
    rng = random.Random(seed)
    ctx = _ctx("0.5", precision)
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
            worst = max(worst, _gap(lhs, rhs))
        checks.append(CheckResult(f"symmetry_{name}", worst, 1e-35))
    return checks


def special_value_suite(precision=50, qs=("0.5", "0.9"), j_cap=3,
                        dixon_cap=4):
    """Every special value against the general formula."""
    worst = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        sv = special_value(key, ctx)
        if sv is not None:
            worst = max(worst, _gap(sv, cgc_racah(key, ctx)))
    checks = [CheckResult("special_value_patterns", worst, 1e-35)]

    ctx1 = _ctx(1, precision)
    worst = 0
    pool = _spin_pool(dixon_cap)
    for tj1 in pool:
        for tj2 in pool:
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                key = CgcKey(twice=(tj1, 0, tj2, 0, tj, 0))
                closed = classical_parity_zero_value(
                    tj1 // 2, tj2 // 2, tj // 2, ctx1)
                worst = max(worst, _gap(closed, cgc_racah(key, ctx1)))
    checks.append(CheckResult("dixon_classical_m0", worst, 1e-35))
    return checks


def recurrence_suite(precision=50, qs=("0.5", "0.7"), j_cap=2):
    """Both three-term recurrences over all interior keys."""
    worst_j = 0
    worst_m = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        if key.twice[4]:
            worst_j = max(worst_j, recurrence_j_residual(key, ctx))
        worst_m = max(worst_m, recurrence_m_residual(key, ctx))
    return [CheckResult("recurrence_j", worst_j, 1e-30),
            CheckResult("recurrence_m", worst_m, 1e-30)]


# ---------------------------------------------------------------------------
# q-Hahn suites
# ---------------------------------------------------------------------------

HAHN_FAMILIES = ((4, 1, 1), (5, 1, 2), (6, "1/2", "3/2"))


def hahn_suite(precision=50, qs=("0.5", "0.9")):
    """Orthogonality, norms, both forms, recurrence and difference data."""
    worst_gram = 0
    worst_forms = 0
    worst_ttrr = 0
    worst_diff = 0
    for q in qs:
        ctx = _ctx(q, precision)
        for (cap_n, alpha, beta) in HAHN_FAMILIES:
            family = [HahnParams(n, cap_n, alpha, beta) for n in range(cap_n)]
            norms = [hahn_norm_sq(params, ctx) for params in family]
            for n, params in enumerate(family):
                for m in range(n, cap_n):
                    entry = gram_entry(params, family[m], ctx)
                    if m == n:
                        worst_gram = max(worst_gram,
                                         abs(entry / norms[n] - 1))
                    else:
                        scale = ctx.mp.sqrt(norms[n] * norms[m])
                        worst_gram = max(worst_gram, abs(entry) / scale)
                for s in range(cap_n):
                    va = hahn_eval(params, s, ctx, form="A")
                    vb = hahn_eval(params, s, ctx, form="B")
                    gap = _gap(va, vb)
                    if gap:
                        worst_forms = max(worst_forms, gap / max(
                            abs(va), abs(vb), 1))
                    worst_ttrr = max(worst_ttrr,
                                     hahn_ttrr_residual(params, s, ctx))
                    worst_diff = max(
                        worst_diff,
                        hahn_difference_residual(params, s, ctx))
    return [CheckResult("hahn_gram", worst_gram, 1e-30),
            CheckResult("hahn_forms_agree", worst_forms, 1e-30),
            CheckResult("hahn_ttrr", worst_ttrr, 1e-30),
            CheckResult("hahn_difference_eq", worst_diff, 1e-30)]


def connection_suite(precision=50, qs=("0.5", "0.9"), j_cap=2):
    """Both coupling-to-polynomial routes against the closed form."""
    worst = 0
    for ctx, key in _sweep([_ctx(q, precision) for q in qs], j_cap):
        ref = cgc_racah(key, ctx)
        for route in ("J2", "J1"):
            worst = max(worst, _gap(cgc_from_hahn(key, ctx, route=route),
                                    ref))
    return [CheckResult("hahn_connection_routes", worst, 1e-30)]


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def classical_limit_suite(precision=50, j_cap="3/2"):
    """Values at q = 1 - 1e-6 against the q = 1 branch."""
    ctx_near = _ctx("0.999999", precision)
    ctx_one = _ctx(1, precision)
    worst_num = 0
    for t in range(-10, 11):  # [x] against x for x = -5, -9/2, ..., 5
        worst_num = max(worst_num, _gap(_bracket(t, ctx_near),
                                        ctx_near.mp.mpf(t) / 2))
    worst_cgc = 0
    for _, key in _sweep([ctx_near], j_cap):
        worst_cgc = max(worst_cgc, _gap(cgc_racah(key, ctx_near),
                                        cgc_racah(key, ctx_one)))
    return [CheckResult("classical_limit_cgc", worst_cgc, 1e-5),
            CheckResult("classical_limit_qnum", worst_num, 1e-6)]


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
