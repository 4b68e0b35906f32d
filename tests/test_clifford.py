"""Multivector engine: products, involutions, matrix images."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_multivector
from spinorspace import clifford as cl

MINK = cl.Signature.MINKOWSKI
EUC = cl.Signature.EUCLIDEAN


def _reference_blade_product(a, b, metric):
    """Bubble-sort the concatenated generators, flipping the sign per
    transposition, then contract equal neighbours to their squares."""
    seq = list(a) + list(b)
    sign = 1.0
    n = len(seq)
    for i in range(n):
        for j in range(n - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    out = []
    k = 0
    while k < len(seq):
        if k + 1 < len(seq) and seq[k] == seq[k + 1]:
            sign *= metric[seq[k]]
            k += 2
        else:
            out.append(seq[k])
            k += 1
    return tuple(out), sign


def _reference_structure_tensor(signature):
    """Dense (16, 16, 16) G with blade_i blade_j = sum_k G[i, j, k] blade_k."""
    g = np.zeros((16, 16, 16))
    for i, bi in enumerate(cl.BLADES):
        for j, bj in enumerate(cl.BLADES):
            bk, s = _reference_blade_product(bi, bj, signature.metric)
            g[i, j, cl.BLADE_INDEX[bk]] = s
    return g


@pytest.mark.parametrize("signature", [MINK, EUC])
def test_product_table_matches_reference(signature):
    index, sign = cl._product_table(signature)
    dense = np.zeros((16, 16, 16))
    rows, cols = np.indices((16, 16))
    dense[rows, cols, index] = sign
    assert np.array_equal(dense, _reference_structure_tensor(signature))


@pytest.mark.parametrize("signature", [MINK, EUC])
def test_mul_matrices_match_reference_contraction(rng, signature):
    g = _reference_structure_tensor(signature)
    for _ in range(50):
        a = random_multivector(rng, signature)
        b = random_multivector(rng, signature)
        want = np.einsum("i,j,ijk->k", a.coeffs, b.coeffs, g)
        tol = 1e-12 * a.norm() * b.norm()
        assert np.max(np.abs(cl.left_mul_matrix(a) @ b.coeffs - want)) < tol
        assert np.max(np.abs(cl.right_mul_matrix(b) @ a.coeffs - want)) < tol
        assert np.max(np.abs(cl.geometric_product(a, b).coeffs - want)) < tol


@pytest.mark.parametrize("signature", [MINK, EUC])
def test_generator_relations_exact(signature):
    """e_mu e_nu + e_nu e_mu = 2 eta_munu, coefficient-exact."""
    eta = signature.metric
    for mu in range(4):
        for nu in range(4):
            em = cl.basis_vector(mu, signature)
            en = cl.basis_vector(nu, signature)
            want = cl.scalar(2.0 * eta[mu] if mu == nu else 0.0, signature)
            assert (em * en + en * em).isclose(want, 0.0)


def test_pseudoscalar_square_by_signature():
    e5m = cl.pseudoscalar(MINK)
    e5e = cl.pseudoscalar(EUC)
    assert (e5m * e5m).isclose(cl.scalar(-1.0, MINK), 0.0)
    assert (e5e * e5e).isclose(cl.scalar(1.0, EUC), 0.0)


def test_metric_signature_examples():
    e0, e1 = cl.basis_vector(0), cl.basis_vector(1)
    assert (e0 * e0).isclose(cl.scalar(1.0))
    assert (e1 * e1).isclose(cl.scalar(-1.0))
    assert (e0 * e1 + e1 * e0).isclose(cl.zero())


def test_signature_mismatch_rejected():
    with pytest.raises(ValueError, match="signature mismatch"):
        cl.geometric_product(cl.basis_vector(0, MINK), cl.basis_vector(0, EUC))


def test_associativity_random(rng):
    for _ in range(100):
        a, b, c = (random_multivector(rng) for _ in range(3))
        lhs, rhs = (a * b) * c, a * (b * c)
        scale = a.norm() * b.norm() * c.norm()
        assert (lhs - rhs).max_abs() < 1e-12 * scale


def test_reversion_examples():
    one_e0 = cl.scalar(1.0) + cl.basis_vector(0)
    assert cl.reversion(one_e0).isclose(one_e0)
    e01 = cl.blade((0, 1))
    assert cl.reversion(e01).isclose(-1 * e01)
    e0123 = cl.pseudoscalar()
    assert cl.reversion(e0123).isclose(e0123)


def test_reversion_antiautomorphism(rng):
    for _ in range(50):
        a, b = random_multivector(rng), random_multivector(rng)
        assert (cl.reversion(a * b) - cl.reversion(b) * cl.reversion(a)).max_abs() < 1e-12 * a.norm() * b.norm()


def test_grade_projection_examples():
    a = cl.scalar(3.0) + cl.basis_vector(0) + cl.blade((0, 1), 2.0)
    assert cl.grade_projection(a, 0).isclose(cl.scalar(3.0))
    assert cl.grade_projection(a, 2).isclose(cl.blade((0, 1), 2.0))
    assert cl.grade_projection(a, 4).isclose(cl.zero())


@given(st.integers(min_value=-3, max_value=8).filter(lambda k: k < 0 or k > 4))
def test_grade_projection_range_error(k):
    with pytest.raises(ValueError, match="grade out of range"):
        cl.grade_projection(cl.scalar(1.0), k)


def test_grade_projection_partition(rng):
    for _ in range(50):
        a = random_multivector(rng)
        total = cl.zero()
        for k in range(5):
            total = total + cl.grade_projection(a, k)
        assert total.isclose(a, 0.0)


def test_adjoint_examples():
    assert cl.adjoint_dagger(cl.basis_vector(0)).isclose(cl.basis_vector(0))
    assert cl.adjoint_dagger(cl.basis_vector(1)).isclose(-1 * cl.basis_vector(1))


def test_adjoint_is_involution(rng):
    for _ in range(50):
        a = random_multivector(rng)
        assert cl.adjoint_dagger(cl.adjoint_dagger(a)).isclose(a, 1e-12 * a.norm())


@pytest.mark.parametrize("rep", [cl.WEYL, cl.DIRAC])
def test_adjoint_matches_matrix_dagger(rng, rep):
    for _ in range(100):
        a = random_multivector(rng)
        lhs = cl.rep_matrix(cl.adjoint_dagger(a), rep)
        rhs = cl.rep_matrix(a, rep).conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * a.norm()


def test_adjoint_requires_time_minus():
    with pytest.raises(ValueError):
        cl.adjoint_dagger(cl.basis_vector(0, EUC))


@pytest.mark.parametrize("rep", [cl.WEYL, cl.DIRAC])
def test_rep_matrix_identity_and_trace(rep):
    assert np.allclose(cl.rep_matrix(cl.scalar(1.0), rep), np.eye(4))
    a = cl.scalar(3.0) + cl.blade((0, 1))
    assert np.isclose(np.trace(cl.rep_matrix(a, rep)), 12.0)


@pytest.mark.parametrize("rep", [cl.WEYL, cl.DIRAC])
def test_rep_matrix_homomorphism(rng, rep):
    for _ in range(100):
        a, b = random_multivector(rng), random_multivector(rng)
        lhs = cl.rep_matrix(a * b, rep)
        rhs = cl.rep_matrix(a, rep) @ cl.rep_matrix(b, rep)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * a.norm() * b.norm()


def test_boost_plane_square():
    # (e0 e1)^2 = +1 in the time-minus metric, also as matrices
    e01 = cl.blade((0, 1))
    assert (e01 * e01).isclose(cl.scalar(1.0))
    m = cl.rep_matrix(e01, cl.WEYL)
    assert np.allclose(m @ m, np.eye(4))


def test_rep_matrix_requires_time_minus():
    with pytest.raises(ValueError):
        cl.rep_matrix(cl.basis_vector(0, EUC), cl.WEYL)


def test_idempotents():
    f = cl.idempotent_f(False)
    assert (f * f - f).max_abs() < 1e-15
    fc = cl.idempotent_f(True)
    assert (fc * fc - fc).max_abs() < 1e-15


def test_complexified_idempotent_dirac_matrix_unit():
    m = cl.rep_matrix(cl.idempotent_f(True), cl.DIRAC)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(m, want, atol=1e-15)


def test_change_of_basis_intertwines_reps():
    u = cl.weyl_to_dirac_matrix()
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-15)
    for mu in range(4):
        assert np.allclose(u @ cl.WEYL.gammas[mu] @ u.conj().T, cl.DIRAC.gammas[mu], atol=1e-14)


def test_gamma_anticommutators():
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for rep in (cl.WEYL, cl.DIRAC):
        for mu in range(4):
            for nu in range(4):
                acom = rep.gammas[mu] @ rep.gammas[nu] + rep.gammas[nu] @ rep.gammas[mu]
                assert np.allclose(acom, 2.0 * eta[mu, nu] * np.eye(4), atol=1e-15)


def test_multivector_immutable(rng):
    a = random_multivector(rng)
    with pytest.raises(ValueError):
        a.coeffs[0] = 99.0


def test_blade_constructor_rejects_noncanonical():
    with pytest.raises(ValueError, match="canonical"):
        cl.blade((1, 0))


@pytest.mark.parametrize("key", [(1, 0), (0, 0), (4,), ()])
def test_blade_dict_and_blade_share_one_key_check(key):
    """A non-canonical key is the same ValueError from both constructors; the
    canonical key () of the scalar blade passes both."""
    if key == ():
        assert cl.from_blade_dict({key: 2.0}) == cl.blade(key, 2.0) == cl.scalar(2.0)
        return
    message = f"^not a canonical blade index tuple: {re.escape(str(key))}$"
    with pytest.raises(ValueError, match=message):
        cl.from_blade_dict({(0,): 1.0, key: 1.0})
    with pytest.raises(ValueError, match=message):
        cl.blade(key)


@pytest.mark.parametrize("operation, message", [
    (lambda a: a + a, "sum"),
    (lambda a: a - (-a), "sum"),
    (lambda a: a * 10.0, "product"),
    (lambda a: 10.0 * a, "product"),
], ids=["add", "subtract", "scale", "scale-left"])
def test_overflowing_multivector_arithmetic_names_its_rows(operation, message):
    pattern = f"^multivector {message} does not fit in float64$"
    with pytest.raises(cl.RowError, match=pattern) as caught:
        operation(cl.scalar(1e308))
    assert caught.value.rows.shape == () and caught.value.rows
    with pytest.raises(cl.RowError, match=pattern) as caught:
        operation(cl.scalar([1.0, 1e308, 0.25]))
    assert caught.value.rows.tolist() == [False, True, False]
    assert operation(cl.scalar([1.0, 2.0, 0.25])).coeffs.shape == (3, 16)
