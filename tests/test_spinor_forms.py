"""Quaternions and the conversions between the three spinor encodings."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_spinor
from spinorspace import bilinears as bl
from spinorspace import clifford as cl
from spinorspace import spinor_forms as sf

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


def rand_quat(rng):
    return sf.Quaternion(*rng.standard_normal(4))


def rand_quat_matrix(rng):
    return sf.quat_matrix(*(rand_quat(rng) for _ in range(4)))


# -- quaternions --------------------------------------------------------------


def test_hamilton_relations():
    qi = sf.Quaternion(0, 1, 0, 0)
    qj = sf.Quaternion(0, 0, 1, 0)
    qk = sf.Quaternion(0, 0, 0, 1)
    minus_one = sf.Quaternion(-1)
    assert (qi * qj).isclose(qk)
    assert (qj * qk).isclose(qi)
    assert (qk * qi).isclose(qj)
    assert (qi * qi).isclose(minus_one)
    assert (qi * qj * qk).isclose(minus_one)


def test_quaternion_units_match_spatial_bivectors():
    """i = e2e3, j = e3e1, k = e1e2 forces ij = k and ijk = -1."""
    e1, e2, e3 = (cl.basis_vector(m) for m in (1, 2, 3))
    qi, qj, qk = e2 * e3, e3 * e1, e1 * e2
    assert (qi * qj).isclose(qk)
    assert (qi * qj * qk).isclose(cl.scalar(-1.0))


def hamilton_reference(a, b):
    """The Hamilton product written out in its 16 terms."""
    return sf.Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def test_product_from_sign_table_equals_hamilton_terms(rng):
    for _ in range(1000):
        p, q = sf.Quaternion(*map(float, rng.standard_normal(4))), sf.Quaternion(*map(float, rng.standard_normal(4)))
        assert np.array_equal((p * q).as_array(), hamilton_reference(p, q).as_array())
    units = [sf.Quaternion(*row) for row in np.eye(4).tolist()]
    for p in units:
        for q in units:
            assert (p * q) == hamilton_reference(p, q)


@given(finite, finite, finite, finite, finite, finite, finite, finite)
def test_norm_multiplicativity(a, b, c, d, e, f, g, h):
    p = sf.Quaternion(a, b, c, d)
    q = sf.Quaternion(e, f, g, h)
    assert np.isclose((p * q).norm(), p.norm() * q.norm(), rtol=1e-9, atol=1e-9)


def test_complex_embedding_is_ring_homomorphism(rng):
    for _ in range(50):
        p, q = rand_quat(rng), rand_quat(rng)
        assert np.allclose((p * q).to_complex_matrix(),
                           p.to_complex_matrix() @ q.to_complex_matrix(), atol=1e-12)


# -- quaternionic generator images ---------------------------------------------


def test_quaternion_rep_displays():
    one, zero = sf.Quaternion(1), sf.Quaternion()
    qi = sf.Quaternion(0, 1, 0, 0)
    e0 = sf.quaternion_rep_e(0)
    assert e0.isclose(sf.quat_matrix(one, zero, zero, -one))
    e1 = sf.quaternion_rep_e(1)
    assert e1.isclose(sf.quat_matrix(zero, qi, qi, zero))
    with pytest.raises(ValueError):
        sf.quaternion_rep_e(4)


def test_quaternion_rep_clifford_relations():
    eta = (1, -1, -1, -1)
    zero = sf.Quaternion()
    for mu in range(4):
        for nu in range(4):
            em, en = sf.quaternion_rep_e(mu), sf.quaternion_rep_e(nu)
            total = (em @ en) + (en @ em)
            d = sf.Quaternion(2.0 * eta[mu]) if mu == nu else zero
            assert total.isclose(sf.quat_matrix(d, zero, zero, d))


def test_e1_squares_to_minus_identity():
    e1 = sf.quaternion_rep_e(1)
    sq = e1 @ e1
    minus = sf.Quaternion(-1)
    assert sq.isclose(sf.quat_matrix(minus, sf.Quaternion(), sf.Quaternion(), minus))


def test_h_to_c_functor_on_products(rng):
    for _ in range(100):
        a, b = rand_quat_matrix(rng), rand_quat_matrix(rng)
        assert np.allclose((a @ b).to_complex(), a.to_complex() @ b.to_complex(), atol=1e-12)


# -- operator packaging --------------------------------------------------------


def test_operator_from_coeffs_pinned():
    op = sf.operator_from_coeffs(1.0, np.zeros(6), 0.0)
    assert op.q1.isclose(sf.Quaternion(1)) and op.q2.isclose(sf.Quaternion())
    op = sf.operator_from_coeffs(0.0, np.zeros(6), 1.0)
    assert op.q1.isclose(sf.Quaternion()) and op.q2.isclose(sf.Quaternion(-1))
    b = np.zeros(6)
    b[5] = 1.0  # the (2,3) slot
    op = sf.operator_from_coeffs(0.0, b, 0.0)
    assert op.q1.isclose(sf.Quaternion(0, 1, 0, 0)) and op.q2.isclose(sf.Quaternion())


def test_classical_from_operator_pinned():
    psi = sf.classical_from_operator(sf.operator_from_coeffs(1.0, np.zeros(6), 0.0))
    assert np.allclose(psi.components, [1, 0, 0, 0])
    psi = sf.classical_from_operator(sf.operator_from_coeffs(0.0, np.zeros(6), 1.0))
    assert np.allclose(psi.components, [0, 0, 1, 0])
    assert psi.rep is cl.DIRAC


def test_operator_classical_round_trip(rng):
    for _ in range(100):
        op = sf.operator_from_coeffs(
            rng.standard_normal(), rng.standard_normal(6), rng.standard_normal()
        )
        back = sf.operator_from_classical(sf.classical_from_operator(op))
        assert op.q1.isclose(back.q1, 1e-12) and op.q2.isclose(back.q2, 1e-12)


def test_operator_embeds_into_even_subalgebra(rng):
    for _ in range(50):
        op = sf.operator_from_coeffs(
            rng.standard_normal(), rng.standard_normal(6), rng.standard_normal()
        )
        mv = sf.operator_to_even_multivector(op)
        assert mv.grade(1).max_abs() == 0.0
        assert mv.grade(3).max_abs() == 0.0
        back = sf.operator_from_even_multivector(mv)
        assert op.q1.isclose(back.q1) and op.q2.isclose(back.q2)


def test_quaternionic_image_is_homomorphism(rng):
    """Image of a product equals the product of images, and the complex
    functor route agrees."""
    for _ in range(50):
        op_a = sf.operator_from_coeffs(
            rng.standard_normal(), rng.standard_normal(6), rng.standard_normal()
        )
        op_b = sf.operator_from_coeffs(
            rng.standard_normal(), rng.standard_normal(6), rng.standard_normal()
        )
        prod = sf.operator_to_even_multivector(op_a) * sf.operator_to_even_multivector(op_b)
        op_ab = sf.operator_from_even_multivector(prod)
        ha, hb = sf.operator_to_quat_matrix(op_a), sf.operator_to_quat_matrix(op_b)
        assert (ha @ hb).isclose(sf.operator_to_quat_matrix(op_ab), 1e-10)
        assert np.allclose((ha @ hb).to_complex(), ha.to_complex() @ hb.to_complex(), atol=1e-12)


# -- algebraic form ------------------------------------------------------------


def test_algebraic_pinned_examples():
    xi = sf.algebraic_from_classical(sf.ClassicalSpinor([1, 0, 0, 0], cl.DIRAC))
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(xi.matrix, want)
    xi = sf.algebraic_from_classical(sf.ClassicalSpinor([0, 0, 0, 0], cl.DIRAC))
    assert np.all(xi.matrix == 0)


def test_algebraic_round_trip(rng):
    for _ in range(100):
        psi = random_spinor(rng, cl.DIRAC)
        back = sf.classical_from_algebraic(sf.algebraic_from_classical(psi))
        assert np.max(np.abs(back.components - psi.components)) < 1e-12


def test_algebraic_fixed_by_ideal_projector(rng):
    fmat = sf.ideal_projector_matrix()
    for _ in range(20):
        xi = sf.algebraic_from_classical(random_spinor(rng, cl.DIRAC))
        assert np.allclose(xi.matrix @ fmat, xi.matrix, atol=1e-14)


def test_algebraic_rejects_extra_columns():
    with pytest.raises(ValueError, match="first column"):
        sf.AlgebraicSpinor(np.eye(4))


# -- H + H packaging -----------------------------------------------------------


def test_ideal_element_pinned():
    one, zero = sf.Quaternion(1), sf.Quaternion()
    h = sf.ideal_element_H2(one, zero)
    assert h.isclose(sf.quat_matrix(one, zero, zero, zero))
    qi, qk = sf.Quaternion(0, 1, 0, 0), sf.Quaternion(0, 0, 0, 1)
    h = sf.ideal_element_H2(qi, qk)
    assert h.entries[0][0].isclose(qi) and h.entries[1][0].isclose(qk)
    assert h.entries[0][1].isclose(zero) and h.entries[1][1].isclose(zero)


def test_ideal_element_product_consistency(rng):
    """Left action of generator images keeps the single-column shape, and the
    complex functor route gives the same products."""
    zero = sf.Quaternion()
    for _ in range(50):
        h = sf.ideal_element_H2(rand_quat(rng), rand_quat(rng))
        mu = int(rng.integers(4))
        out = sf.quaternion_rep_e(mu) @ h
        assert out.entries[0][1].isclose(zero) and out.entries[1][1].isclose(zero)
        assert np.allclose(
            out.to_complex(),
            sf.quaternion_rep_e(mu).to_complex() @ h.to_complex(),
            atol=1e-12,
        )


# -- the isomorphism chain -----------------------------------------------------


def test_isomorphism_chain_round_trips(rng):
    for _ in range(200):
        op = sf.operator_from_coeffs(
            rng.standard_normal(), rng.standard_normal(6), rng.standard_normal()
        )
        psi = sf.classical_from_operator(op)
        xi = sf.algebraic_from_classical(psi)
        psi2 = sf.classical_from_algebraic(xi)
        op2 = sf.operator_from_classical(psi2)
        mv = sf.operator_to_even_multivector(op2)
        op3 = sf.operator_from_even_multivector(mv)
        assert np.max(np.abs(psi2.components - psi.components)) < 1e-12
        assert op.q1.isclose(op3.q1, 1e-12) and op.q2.isclose(op3.q2, 1e-12)


def test_rep_conversion_round_trip(rng):
    for _ in range(20):
        psi = random_spinor(rng, cl.WEYL)
        back = psi.to_rep(cl.DIRAC).to_rep(cl.WEYL)
        assert np.max(np.abs(back.components - psi.components)) < 1e-14


def test_zero_spinor_is_representable():
    psi = sf.ClassicalSpinor([0, 0, 0, 0], cl.WEYL)
    assert psi.is_zero


def test_nonfinite_components_rejected():
    with pytest.raises(ValueError, match="finite"):
        sf.ClassicalSpinor([np.inf, 0, 0, 0], cl.WEYL)


# -- batches -------------------------------------------------------------------

BATCH = (3, 5)


def batch_quat(rng):
    """A (3, 5) quaternion batch and its rows, each built as a single quaternion."""
    v = rng.standard_normal(BATCH + (4,))
    return sf.Quaternion(*np.moveaxis(v, -1, 0)), {i: sf.Quaternion(*v[i]) for i in np.ndindex(BATCH)}


def batch_spinor(rng, rep):
    c = rng.standard_normal(BATCH + (4,)) + 1j * rng.standard_normal(BATCH + (4,))
    c[0, 0, 1] = 0.0
    return sf.ClassicalSpinor(c, rep), {i: sf.ClassicalSpinor(c[i], rep) for i in np.ndindex(BATCH)}


def assert_rows(batched, single, read):
    """Every row of read(batched) equals read of the single call bit for bit."""
    for i, one in single.items():
        assert np.array_equal(np.asarray(read(batched))[i], read(one)), i


def test_quaternion_operations_take_batches(rng):
    (a, rows_a), (b, rows_b) = batch_quat(rng), batch_quat(rng)
    assert a.as_array().shape == BATCH + (4,) and a.w.shape == BATCH
    assert isinstance(rows_a[0, 0].w, float) and isinstance(rows_a[0, 0].dot(rows_b[0, 0]), float)
    for op in (lambda p, q: p * q, lambda p, q: p + q, lambda p, q: p - q,
               lambda p, q: -p, lambda p, q: p.conjugate(), lambda p, q: 2.5 * p):
        pairs = {i: op(rows_a[i], rows_b[i]) for i in rows_a}
        assert_rows(op(a, b), pairs, lambda q: q.as_array())
    pairs = {i: (rows_a[i], rows_b[i]) for i in rows_a}
    assert_rows((a, b), pairs, lambda ab: ab[0].dot(ab[1]))
    assert_rows(a, rows_a, lambda q: q.norm())
    assert_rows(a, rows_a, lambda q: q.to_complex_matrix())
    for name in "wxyz":
        assert_rows(a, rows_a, lambda q: getattr(q, name))
    assert a == sf.Quaternion(a.w, a.x, a.y, a.z) and not a == -a


def test_quat_matrix_operations_take_batches(rng):
    qa, qb = [batch_quat(rng) for _ in range(4)], [batch_quat(rng) for _ in range(4)]
    a, b = sf.quat_matrix(*(q for q, _ in qa)), sf.quat_matrix(*(q for q, _ in qb))
    rows_a = {i: sf.quat_matrix(*(r[i] for _, r in qa)) for i in np.ndindex(BATCH)}
    rows_b = {i: sf.quat_matrix(*(r[i] for _, r in qb)) for i in np.ndindex(BATCH)}
    assert a.to_complex().shape == BATCH + (4, 4)
    for op in (lambda p, q: p @ q, lambda p, q: p + q, lambda p, q: p.scale(-1.5)):
        pairs = {i: op(rows_a[i], rows_b[i]) for i in rows_a}
        assert_rows(op(a, b), pairs, lambda m: m.stack())
    assert_rows(a, rows_a, lambda m: m.to_complex())
    for r in range(2):
        for c in range(2):
            assert_rows(a, rows_a, lambda m: m.entries[r][c].as_array())
    pairs = {i: sf.quaternion_rep_e(1) @ rows_a[i] for i in rows_a}
    assert_rows(sf.quaternion_rep_e(1) @ a, pairs, lambda m: m.stack())


@pytest.mark.parametrize("rep", [cl.WEYL, cl.DIRAC], ids=["weyl", "dirac"])
def test_conversions_take_batches(rng, rep):
    psi, rows = batch_spinor(rng, rep)
    op = sf.operator_from_classical(psi)
    ops = {i: sf.operator_from_classical(r) for i, r in rows.items()}
    assert_rows(op, ops, lambda o: o.q1.as_array())
    assert_rows(op, ops, lambda o: o.q2.as_array())
    assert_rows(op, ops, lambda o: sf.classical_from_operator(o).components)
    assert_rows(op, ops, lambda o: sf.operator_to_even_multivector(o).coeffs)
    assert_rows(op, ops, lambda o: sf.operator_from_even_multivector(sf.operator_to_even_multivector(o)).q1.as_array())
    assert_rows(op, ops, lambda o: sf.operator_to_quat_matrix(o).stack())
    assert_rows(op, ops, lambda o: sf.ideal_element_H2(o.q1, o.q2).stack())
    xi = sf.algebraic_from_classical(psi)
    assert xi.matrix.shape == BATCH + (4, 4)
    assert_rows(psi, rows, lambda p: sf.algebraic_from_classical(p).matrix)
    assert_rows(xi, {i: sf.algebraic_from_classical(r) for i, r in rows.items()},
                lambda x: sf.classical_from_algebraic(x).components)


def test_operator_from_coeffs_takes_batches(rng):
    s, b, p = rng.standard_normal(BATCH), rng.standard_normal(BATCH + (6,)), rng.standard_normal(BATCH)
    op = sf.operator_from_coeffs(s, b, p)
    for i in np.ndindex(BATCH):
        one = sf.operator_from_coeffs(s[i], b[i], p[i])
        assert op.q1.as_array()[i].tolist() == one.q1.as_array().tolist()
        assert op.q2.as_array()[i].tolist() == one.q2.as_array().tolist()


def test_euclidean_routes_take_batches(rng):
    (q1, rows1), (q2, rows2) = batch_quat(rng), batch_quat(rng)
    pairs = {i: (rows1[i], rows2[i]) for i in rows1}
    c4 = bl.quaternion_pair_to_c4(q1, q2)
    assert c4.shape == BATCH + (4,)
    assert_rows((q1, q2), pairs, lambda qq: bl.quaternion_pair_to_c4(*qq))
    got = bl.quaternionic_euclidean_components(q1, q2)
    for k in range(3):
        assert_rows(got[k], {i: bl.quaternionic_euclidean_components(*qq)[k] for i, qq in pairs.items()},
                    lambda v: v)
    assert_rows(np.stack(got[3], axis=-1), {i: bl.quaternionic_euclidean_components(*qq)[3]
                                            for i, qq in pairs.items()}, lambda v: v)
    closed = bl.euclidean_components_closed_form(c4)
    for k in range(3):
        assert_rows(closed[k], {i: bl.euclidean_components_closed_form(c4[i])[k] for i in pairs},
                    lambda v: v)
    assert isinstance(bl.euclidean_components_closed_form(c4[0, 0])[0], float)


def test_scalar_gathers_match_component_formulas(rng):
    """The signed gathers give the values of the component-by-component maps
    bit for bit."""
    for _ in range(200):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c[rng.integers(4)] = 0.0
        for rep in (cl.WEYL, cl.DIRAC):
            psi = sf.ClassicalSpinor(c, rep)
            p1, p2, p3, p4 = psi.to_rep(cl.DIRAC).components
            op = sf.operator_from_classical(psi)
            assert op.q1 == sf.Quaternion(p1.real, p1.imag, -p2.real, p2.imag)
            assert op.q2 == sf.Quaternion(-p3.real, -p3.imag, p4.real, -p4.imag)
            q1, q2 = op.q1, op.q2
            want = [q1.w + 1j * q1.x, -q1.y + 1j * q1.z, -q2.w - 1j * q2.x, q2.y - 1j * q2.z]
            assert np.array_equal(sf.classical_from_operator(op).components, want)
            assert np.array_equal(sf.algebraic_from_classical(psi).matrix[:, 0], [p1, p2, p3, p4])
            assert np.array_equal(sf.algebraic_from_classical(psi).matrix[:, 1:], np.zeros((4, 3)))
        s, b, p = rng.standard_normal(), rng.standard_normal(6), rng.standard_normal()
        op = sf.operator_from_coeffs(s, b, p)
        assert op.q1 == sf.Quaternion(s, b[5], -b[4], b[3]) and op.q2 == sf.Quaternion(-p, b[0], b[1], b[2])
        data = {(): s, (0, 1, 2, 3): p, **dict(zip(sf.BIVECTOR_ORDER, b))}
        mv = sf.operator_to_even_multivector(op)
        assert np.array_equal(mv.coeffs, cl.from_blade_dict(data).coeffs)
        assert sf.operator_from_even_multivector(mv) == op
        q1, q2 = rand_quat(rng), rand_quat(rng)
        want = [q1.w + 1j * q1.z, q1.y + 1j * q1.x, q2.w + 1j * q2.z, q2.y + 1j * q2.x]
        assert np.array_equal(bl.quaternion_pair_to_c4(q1, q2), want)


@pytest.mark.parametrize("first, off", [(1.7e308 + 1.7e308j, 1.7e308), (1e308 + 1e308j, 1e308j),
                                        (-1.7e308 - 1.7e308j, -1.7e308 - 1.7e308j)])
def test_ideal_element_check_survives_overflowing_moduli(first, off):
    """An entry off the first column as large as the first column's is
    rejected also where the largest modulus overflows float64."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[2, 1] = first, off
    for matrix in (m, np.stack([np.diag([1, 0, 0, 0]).astype(complex), m])):
        with pytest.raises(ValueError, match="first column only"):
            sf.AlgebraicSpinor(matrix)
    m[2, 1] = 0
    assert sf.AlgebraicSpinor(m).matrix[0, 0] == first


EXPONENTS = st.integers(-330, 300)


@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), EXPONENTS), min_size=4, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3), st.floats(-1, 1), st.floats(-16, 0)), max_size=3))
def test_ideal_element_check_agrees_with_unscaled_rule(column, offs):
    """Where no modulus overflows, the check decides as the comparison
    max |m[:, 1:]| > 1e-12 max(1, max |m|) on the matrix itself does; off
    entries are drawn near that threshold."""
    m = np.zeros((4, 4), dtype=complex)
    m[:, 0] = [complex(x * 10.0 ** e, y * 10.0 ** e) for x, y, e in column]
    peak = max(1.0, float(np.abs(m).max()))
    for row, col, sign, digits in offs:
        m[row, col] = 1e-12 * peak * (1 + np.copysign(10.0 ** digits, sign))
    reject = np.abs(m[:, 1:]).max() > 1e-12 * max(1.0, np.abs(m).max())
    try:
        sf.AlgebraicSpinor(m)
        rejected = False
    except ValueError:
        rejected = True
    assert rejected == reject


def test_ideal_element_check_of_subnormal_matrix_raises_no_warning():
    """On the ray of a matrix of subnormal entries, 1 is beyond float64: the
    threshold is inf, quietly, and the matrix is accepted as the unscaled
    rule accepts it."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1] = 5e-324, 4e-324j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.AlgebraicSpinor(m).matrix.tobytes() == m.tobytes()


def test_overflowing_quaternion_product_names_its_rows():
    big = sf.Quaternion(1e308, 1e308)
    with pytest.raises(cl.RowError, match="^quaternion product does not fit in float64$") as caught:
        big * big
    assert caught.value.rows.shape == () and caught.value.rows
    batch = sf.Quaternion([1.0, 1e308, 0.25], [0.0, 1e308, 0.25])
    with pytest.raises(cl.RowError, match="^quaternion product does not fit in float64$") as caught:
        batch * big
    assert caught.value.rows.tolist() == [False, True, False]
    assert (sf.Quaternion(0.25, 0.25) * big).as_array().tolist() == [0.0, 0.5e308, 0.0, 0.0]


# a quaternion and a 2x2 quaternionic matrix whose arithmetic leaves float64
BIG = sf.Quaternion(1e308, 1e308)
BIG_MATRIX = sf.quat_matrix(BIG, BIG, BIG, BIG)
# one row of each batch does not fit: the middle one
ROWS = [False, True, False]


def quaternion_batch(middle: float) -> sf.Quaternion:
    return sf.Quaternion([1.0, middle, 0.25], [0.0, middle, 0.25])


def matrix_batch(middle: float) -> sf.QuatMatrix2:
    q = quaternion_batch(middle)
    return sf.quat_matrix(q, q, q, q)


@pytest.mark.parametrize("operation, message", [
    (lambda a, b: a + b, "sum"),
    (lambda a, b: a - (-b), "sum"),
    (lambda a, b: a * 1e10, "product"),
    (lambda a, b: 1e10 * a, "product"),
], ids=["add", "subtract", "scale", "scale-left"])
def test_overflowing_quaternion_arithmetic_names_its_rows(operation, message):
    with pytest.raises(cl.RowError, match=f"^quaternion {message} does not fit in float64$") as caught:
        operation(BIG, BIG)
    assert caught.value.rows.shape == () and caught.value.rows
    with pytest.raises(cl.RowError, match=f"^quaternion {message} does not fit in float64$") as caught:
        operation(quaternion_batch(1e308), quaternion_batch(1e308))
    assert caught.value.rows.tolist() == ROWS
    assert operation(quaternion_batch(1.0), quaternion_batch(1.0)).as_array().shape == (3, 4)


def test_overflowing_quaternion_dot_names_its_rows():
    """A square, or the sum of four, beyond float64 is a RowError, also in
    the quaternionic covariants read through dot."""
    with pytest.raises(cl.RowError, match="^quaternion product does not fit in float64$") as caught:
        sf.Quaternion(1e200).dot(sf.Quaternion(1e200))
    assert caught.value.rows.shape == () and caught.value.rows
    with pytest.raises(cl.RowError, match="^quaternion product does not fit in float64$") as caught:
        quaternion_batch(1e154).dot(quaternion_batch(1e154))
    assert caught.value.rows.tolist() == ROWS
    with pytest.raises(cl.RowError, match="^quaternion product does not fit in float64$"):
        bl.quaternionic_euclidean_components(sf.Quaternion(1e200), sf.Quaternion(1.0))
    assert quaternion_batch(1.0).dot(quaternion_batch(1.0)).tolist() == [1.0, 2.0, 0.125]


@pytest.mark.parametrize("operation, message", [
    (lambda a, b: a @ b, "product"),
    (lambda a, b: a + b, "sum"),
    (lambda a, b: a.scale(1e10), "product"),
], ids=["matmul", "add", "scale"])
def test_overflowing_quaternion_matrix_arithmetic_names_its_rows(operation, message):
    """Rows of a matrix batch, not of its entries, are named: the product of
    a huge matrix with itself is no silent NaN."""
    with pytest.raises(cl.RowError, match=f"^quaternion {message} does not fit in float64$") as caught:
        operation(BIG_MATRIX, BIG_MATRIX)
    assert caught.value.rows.shape == () and caught.value.rows
    with pytest.raises(cl.RowError, match=f"^quaternion {message} does not fit in float64$") as caught:
        operation(matrix_batch(1e308), matrix_batch(1e308))
    assert caught.value.rows.tolist() == ROWS
    assert operation(matrix_batch(1.0), matrix_batch(1.0)).stack().shape == (3, 2, 2, 4)
