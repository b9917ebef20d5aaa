"""Unit tests for the representation matrices and projection operators."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qcgc import HalfInt, QContext, halfint_range
from qcgc.cgc import CgcKey, cgc_racah, racah_table
from qcgc.qcore import qnum
from qcgc import repsu

CTX = QContext(q="0.5", precision=50)


def test_irrep_commutation_relations():
    with CTX.work():
        for j in ("1/2", "1", "3/2"):
            basis = repsu.IrrepBasis(j)
            j0, jp, jm = repsu.irrep_operators(j, CTX)
            assert repsu.mat_max_abs(repsu.commutator(j0, jp) - jp) < CTX.tol
            assert repsu.mat_max_abs(repsu.commutator(j0, jm) + jm) < CTX.tol
            two_j0 = repsu.mat_zeros(basis.dim)
            for i, m in enumerate(basis.states):
                two_j0[i, i] = qnum(2 * m, CTX)
            assert repsu.mat_max_abs(
                repsu.commutator(jp, jm) - two_j0) < CTX.tol


def test_ladder_adjointness():
    with CTX.work():
        _, jp, jm = repsu.irrep_operators("3/2", CTX)
        assert repsu.mat_max_abs(jp.T - jm) == 0


def test_casimir_is_constant_and_central():
    with CTX.work():
        for j in ("1", "3/2"):
            basis = repsu.IrrepBasis(j)
            j0, jp, jm = repsu.irrep_operators(j, CTX)
            cas = repsu.casimir_matrix(jm, basis, CTX)
            eig = qnum(basis.j + HalfInt("1/2"), CTX) ** 2
            assert repsu.mat_max_abs(
                cas - eig * repsu.mat_eye(basis.dim)) < CTX.tol
            for op in (j0, jp, jm):
                assert repsu.mat_max_abs(repsu.commutator(cas, op)) < CTX.tol


def test_ladder_power_closed_forms():
    for j in ("1/2", "1", "3/2", "2"):
        basis = repsu.IrrepBasis(j)
        for r in range(basis.dim + 1):
            assert repsu.operator_power_check(j, r, CTX) < CTX.tol


def test_lemma_identities_on_irreps():
    for j in ("1/2", "1", "3/2"):
        assert repsu.lemma1_suite(repsu.IrrepBasis(j),
                                  repsu.irrep_operators(j, CTX), CTX) < CTX.tol


def test_lemma_identities_on_tensor_products():
    # the same identities, with B and A the coproducts Delta(J0), Delta(J+-)
    for j1, j2 in (("1/2", "1"), ("1", "3/2")):
        assert repsu.lemma1_suite(repsu.TensorBasis(j1, j2),
                                  repsu.coproduct_operators(j1, j2, CTX),
                                  CTX) < CTX.tol


def test_coproduct_commutation_and_binomial():
    with CTX.work():
        basis = repsu.TensorBasis("1/2", "1")
        j0, jp, jm = repsu.coproduct_operators("1/2", "1", CTX)
        assert repsu.mat_max_abs(repsu.commutator(j0, jp) - jp) < CTX.tol
        two_j0 = repsu.mat_zeros(basis.dim)
        for i, (m1, m2) in enumerate(basis.states):
            two_j0[i, i] = qnum(2 * (m1 + m2), CTX)
        assert repsu.mat_max_abs(repsu.commutator(jp, jm) - two_j0) < CTX.tol
        for r in range(4):
            for sign, op in ((1, jp), (-1, jm)):
                expanded = repsu.coproduct_power_binomial(
                    "1/2", "1", r, CTX, sign=sign)
                assert repsu.mat_max_abs(
                    repsu.mat_power(op, r) - expanded) < CTX.tol


def _weight_cols(basis, m):
    return [i for i, (m1, m2) in enumerate(basis.states) if m1 + m2 == m]


def test_extremal_projector_idempotent_on_top_weight_block():
    with CTX.work():
        basis = repsu.TensorBasis("1", "1")
        for j in halfint_range(0, 2):
            p = repsu.projector_extremal(j, basis, CTX)
            d = p @ p - p
            for c in _weight_cols(basis, j):
                for r in range(basis.dim):
                    assert abs(d[r, c]) < CTX.tol
            assert repsu.mat_max_abs(p.T - p) < CTX.tol


def test_projector_completeness_per_weight_block():
    with CTX.work():
        basis = repsu.TensorBasis("1/2", "1")
        total = {}
        for j in halfint_range(HalfInt("1/2"), HalfInt("3/2")):
            for m in halfint_range(-j, j):
                p = repsu.projector_general(j, m, m, basis, CTX)
                total[m] = total.get(m, repsu.mat_zeros(basis.dim)) + p
        eye = repsu.mat_eye(basis.dim)
        for m, acc in total.items():
            d = acc - eye
            for c in _weight_cols(basis, m):
                for r in range(basis.dim):
                    assert abs(d[r, c]) < CTX.tol


def test_projector_transpose_law():
    with CTX.work():
        basis = repsu.TensorBasis("1/2", "1/2")
        p_ab = repsu.projector_general(1, 0, 1, basis, CTX)
        p_ba = repsu.projector_general(1, 1, 0, basis, CTX)
        assert repsu.mat_max_abs(p_ab.T - p_ba) < CTX.tol


def test_general_projector_reduces_to_extremal():
    with CTX.work():
        basis = repsu.TensorBasis("1/2", "1/2")
        p1 = repsu.projector_general(1, 1, 1, basis, CTX)
        p2 = repsu.projector_extremal(1, basis, CTX)
        d = p1 - p2
        for c in _weight_cols(basis, HalfInt(1)):
            for r in range(basis.dim):
                assert abs(d[r, c]) < CTX.tol


def test_oracle_matches_classical_values_at_q1():
    ctx = QContext(q=1, precision=50)
    with ctx.work():
        root_half = mp.sqrt(mpf(1) / 2)
        up_down = CgcKey("1/2", "1/2", "1/2", "-1/2", 1, 0)
        singlet = CgcKey("1/2", "1/2", "1/2", "-1/2", 0, 0)
        assert ctx.close(repsu.oracle_cgc(up_down, ctx), root_half)
        assert ctx.close(repsu.oracle_cgc(singlet, ctx), root_half)
        assert ctx.close(
            repsu.oracle_cgc(CgcKey("1/2", "-1/2", "1/2", "1/2", 0, 0), ctx),
            -root_half)


def test_oracles_agree_with_racah():
    with CTX.work():
        for key in (CgcKey("1/2", "1/2", 1, 0, "3/2", "1/2"),
                    CgcKey("1/2", "-1/2", 1, 1, "1/2", "1/2"),
                    CgcKey(1, 0, 1, 0, 1, 0),
                    CgcKey(1, 1, 1, -1, 2, 0)):
            ref = cgc_racah(key, CTX)
            assert CTX.close(repsu.oracle_cgc(key, CTX), ref)
            assert CTX.close(repsu.oracle_cgc_lowering(key, CTX), ref)


def test_oracle_zero_on_selection_failure():
    key = CgcKey("1/2", "1/2", "1/2", "1/2", 1, 0)
    assert repsu.oracle_cgc(key, CTX) == 0
    assert repsu.oracle_cgc_lowering(key, CTX) == 0


def test_stretched_state_positive_convention():
    with CTX.work():
        key = CgcKey(1, 1, "1/2", "1/2", "3/2", "3/2")
        assert repsu.oracle_cgc(key, CTX) > 0


def test_operators_and_projectors_are_built_once_per_context():
    ctx = QContext(q="0.7", precision=50)
    basis = repsu.TensorBasis("1/2", 1)
    ops = repsu.coproduct_operators("1/2", 1, ctx)
    p_top = repsu.projector_extremal("3/2", basis, ctx)
    assert repsu.coproduct_operators(HalfInt("1/2"), HalfInt(1), ctx) is ops
    assert repsu.projector_extremal(
        HalfInt("3/2"), repsu.TensorBasis("1/2", 1), ctx) is p_top
    for a in ops + (p_top,):
        with pytest.raises(ValueError):
            a[0, 0] = 1
    fresh = QContext(q="0.7", precision=50)
    fresh_ops = repsu.coproduct_operators("1/2", 1, fresh)
    fresh_top = repsu.projector_extremal("3/2", basis, fresh)
    for a, b in zip(ops + (p_top,), fresh_ops + (fresh_top,)):
        assert a is not b
        assert a == b


# the pairs of doubled spins of the benchmark's table ladder with both
# at most 8
LADDER_TO_SPIN_4 = ((1, 1), (2, 1), (3, 2), (5, 3), (4, 4), (8, 4), (6, 6),
                    (7, 7))


@pytest.mark.parametrize("q", ["0.3", "1.25"])
def test_coupled_states_match_racah_table_to_spin_4(q):
    ctx = QContext(q=q, precision=50)
    checked = 0
    for pair in LADDER_TO_SPIN_4:
        for tj1, tj2 in (pair, pair[::-1]):
            j1, j2 = HalfInt(twice=tj1), HalfInt(twice=tj2)
            basis = repsu.TensorBasis(j1, j2)
            states = repsu.coupled_states(j1, j2, ctx)
            for (_, tm1, _, tm2, tj, tm), value in racah_table(
                    j1, j2, ctx).items():
                vec = states[(HalfInt(twice=tj), HalfInt(twice=tm))]
                oracle = vec[basis.index(HalfInt(twice=tm1),
                                         HalfInt(twice=tm2)), 0]
                assert ctx.close(value, oracle), (tj1, tm1, tj2, tm2, tj, tm)
                checked += 1
    assert checked == 1930


@pytest.mark.parametrize("q", ["0.3", "0.5", "1.25"])
def test_coupled_states_are_orthonormal(q):
    ctx = QContext(q=q, precision=50)
    for j1, j2 in (("1/2", "1"), ("3/2", "2"), ("2", "2"), ("5/2", "2")):
        dim = repsu.TensorBasis(j1, j2).dim
        states = list(repsu.coupled_states(j1, j2, ctx).values())
        assert len(states) == dim
        for a in states:
            assert a.shape == (dim, 1)
            for b in states:
                assert abs((a.T @ b)[0, 0] - (a is b)) < ctx.tol


def test_projector_oracle_at_spin_4():
    ctx = QContext(q="0.5", precision=50)
    for j in range(9):
        key = CgcKey(4, 0, 4, 0, j, 0)
        assert ctx.close(repsu.oracle_cgc(key, ctx), cgc_racah(key, ctx)), j
