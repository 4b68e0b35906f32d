"""The singular regular-to-flag-dipole mapping and its constraint system."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_spinor
from spinorspace import classmap
from spinorspace import clifford as cl
from spinorspace.bilinears import bilinear_covariants
from spinorspace.lounesto import LounestoClass, classify, generate
from spinorspace.spinor_forms import ClassicalSpinor


def test_all_ones_row_structure():
    p = classmap.MappingParams(*([1.0] * 9))
    m = classmap.build_M(p).matrix
    assert np.allclose(m[1], m[0])
    assert np.allclose(m[2], -m[3])


def test_m12_zero_rejected():
    with pytest.raises(ValueError, match="m12"):
        classmap.MappingParams(1, 0, 1, 1, 1, 1, 1, 1, 1)


# parts of at least 1e-3 (or 0), so no part underflows at the smallest scale drawn
PARTS = st.floats(-1.0, 1.0).filter(lambda x: x == 0 or abs(x) >= 1e-3)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[hnp.arrays(np.float64, (n, 9), elements=e) for e in (
    st.floats(0.1, 1.0), st.floats(-np.pi, np.pi), st.floats(-150.0, 150.0))])))
def test_batch_build_M_equals_its_rows(drawn):
    """Parameters at scales 10^U(-150, 150), each entry its own: a batch
    build_M equals the single build_M of each row bit for bit, and rows
    whose matrix overflows raise RowError marking only those rows."""
    modulus, phase, exponent = drawn
    values = modulus * np.exp(1j * phase) * 10.0 ** exponent
    single, unfit = [], []
    for row in values:
        try:
            single.append(classmap.build_M(classmap.MappingParams(*row)).matrix)
            unfit.append(False)
        except cl.RowError as exc:
            assert exc.rows.shape == () and exc.rows
            unfit.append(True)
    unfit = np.array(unfit)
    if unfit.any():
        with pytest.raises(cl.RowError, match="^mapping matrix does not fit in float64$") as excinfo:
            classmap.build_M(classmap.MappingParams(*values.T))
        assert excinfo.value.rows.tolist() == unfit.tolist()
    batch = classmap.build_M(classmap.MappingParams(*values[~unfit].T))
    assert batch.matrix.shape == (len(single), 4, 4)
    assert batch.matrix.tobytes() == np.array(single).tobytes()


def test_determinant_vanishes(rng):
    for _ in range(300):
        m = classmap.build_M(classmap.random_params(rng))
        assert classmap.no_inverse_witness(m.matrix) < 1e-12 * m.frobenius() ** 4


def test_constraint_residuals(rng):
    for _ in range(100):
        m = classmap.build_M(classmap.random_params(rng))
        r0, r123 = classmap.constraint_residuals(m.matrix)
        bound = 1e-12 * m.frobenius() ** 2
        assert r0 < bound and r123 < bound


def test_constraint_residuals_contrast_cases():
    r0, r123 = classmap.constraint_residuals(np.eye(4))
    assert r0 == 1.0
    r0, r123 = classmap.constraint_residuals(np.zeros((4, 4)))
    assert r0 == 0.0 and r123 == 0.0


def test_no_inverse_witness_contrast():
    assert classmap.no_inverse_witness(np.eye(4)) == 1.0


@pytest.mark.parametrize("source", [LounestoClass.C1, LounestoClass.C2, LounestoClass.C3])
def test_image_kills_both_scalars(rng, source):
    for seed in range(5):
        m = classmap.build_M(classmap.random_params(rng))
        phi = generate(source, seed=seed, count=1)[0]
        mapped = classmap.map_to_class4(m, phi)
        b = bilinear_covariants(mapped.spinor)
        n2 = mapped.spinor.norm() ** 2
        assert abs(b.sigma) < 1e-10 * n2
        assert abs(b.omega) < 1e-10 * n2


def test_image_generically_class_four(rng):
    hits = 0
    for seed in range(20):
        m = classmap.build_M(classmap.random_params(rng))
        phi = generate(LounestoClass.C1, seed=seed, count=1)[0]
        mapped = classmap.map_to_class4(m, phi)
        if classify(mapped.spinor).lounesto_class is LounestoClass.C4:
            hits += 1
            assert mapped.degenerate == ()
    assert hits >= 18


def test_kernel_input_rejected(rng):
    m = classmap.build_M(classmap.random_params(rng))
    # a kernel direction exists since the matrix is singular
    _, svals, vh = np.linalg.svd(m.matrix)
    kernel = vh[-1].conj()
    assert svals[-1] < 1e-12
    phi = ClassicalSpinor(kernel, cl.WEYL)
    if not classify(phi).lounesto_class.is_regular:
        pytest.skip("kernel vector not regular for this draw")
    with pytest.raises(ValueError, match="kernel"):
        classmap.map_to_class4(m, phi)


def test_overflowing_image_is_named_with_its_row():
    """An image past float64's largest float raises the same RowError as an
    underflowing one, for its row only, with no warning."""
    params = classmap.random_params(np.random.default_rng(3))
    m = classmap.build_M(classmap.MappingParams(*params.stack() * 1e200))
    phi = ClassicalSpinor(np.array([[1, 0, 1, 0], [1e150, 0, 1e150, 0]]), cl.WEYL)
    with pytest.raises(cl.RowError, match="image leaves float64's normal range") as excinfo:
        classmap.map_to_class4(m, phi)
    assert excinfo.value.rows.tolist() == [False, True]


@given(st.lists(PARTS, min_size=8, max_size=8), st.floats(-300.0, 150.0), st.floats(-200.0, 150.0),
       st.integers(0, 2 ** 32 - 1))
def test_map_to_class4_alike_at_every_scale(parts, exponent, param_exponent, seed):
    """A regular spinor scaled by 10^U(-300, 150), mapped with parameters
    scaled by 10^U(-200, 150), maps to the class and degeneracy flags of the
    unscaled ones, though a norm underflows below about 1e-162: the kernel
    is tested on the rays of both.  The image, of order
    10^(exponent + param_exponent), is the rays' image scaled back; where
    its largest part is not a normal float64 it is an error row, never
    another class, and down to 10^-290 it is always normal."""
    assume(exponent + param_exponent <= 150)
    phi = np.array(parts[:4]) + 1j * np.array(parts[4:])
    assume(np.abs(phi).max() >= 1e-3)
    assume(classify(ClassicalSpinor(phi, cl.WEYL)).lounesto_class.is_regular)
    params = classmap.random_params(np.random.default_rng(seed))
    m = classmap.build_M(params)
    at_one = classmap.map_to_class4(m, ClassicalSpinor(phi, cl.WEYL))
    m = classmap.build_M(classmap.MappingParams(*params.stack() * 10.0 ** param_exponent))
    try:
        scaled = classmap.map_to_class4(m, ClassicalSpinor(phi * 10.0 ** exponent, cl.WEYL))
    except cl.RowError as exc:
        assert str(exc) == "image leaves float64's normal range"
        assert exponent + param_exponent < -290
    else:
        assert scaled.report.lounesto_class is at_one.report.lounesto_class
        assert scaled.degenerate == at_one.degenerate


def test_non_regular_input_rejected(rng):
    m = classmap.build_M(classmap.random_params(rng))
    weyl = generate(LounestoClass.C6, seed=0, count=1)[0]
    with pytest.raises(ValueError, match="regular"):
        classmap.map_to_class4(m, weyl)


def test_wrong_representation_rejected(rng):
    m = classmap.build_M(classmap.random_params(rng))
    phi = random_spinor(rng, cl.DIRAC)
    with pytest.raises(ValueError, match="chiral"):
        classmap.map_to_class4(m, phi)


def test_no_right_inverse(rng):
    """Solving M x = phi fails whenever phi leaves the column space."""
    for _ in range(20):
        m = classmap.build_M(classmap.random_params(rng)).matrix
        phi = random_spinor(rng).components
        x, residual, rank, _ = np.linalg.lstsq(m, phi, rcond=None)
        assert rank < 4
        assert np.linalg.norm(m @ x - phi) > 1e-3 * np.linalg.norm(phi)


# -- self-adjoint constraint system ---------------------------------------------


def test_hermitian_constrain_builds_hermitian(rng):
    for _ in range(20):
        p = classmap.random_hermitian_params(rng)
        m = classmap.hermitian_constrain(p)
        assert np.max(np.abs(m.matrix - m.matrix.conj().T)) < 1e-12 * m.frobenius()
        r0, r123 = classmap.constraint_residuals(m.matrix)
        assert max(r0, r123) < 1e-12 * m.frobenius() ** 2


def test_hermitian_constrain_lists_violations():
    p = classmap.MappingParams(1j, 1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError) as excinfo:
        classmap.hermitian_constrain(p)
    message = str(excinfo.value)
    assert "m11 must be real" in message
    assert ";" in message


@pytest.mark.parametrize("batch", [(2,), (9,)])
def test_hermitian_constrain_refuses_a_batch(batch):
    """It takes one parameter set: a batch is a ValueError naming its shape,
    whether or not the batch is nine sets long."""
    p = classmap.MappingParams(*np.ones((9,) + batch))
    with pytest.raises(ValueError, match=rf"one parameter set, got a batch of shape \({batch[0]},\)"):
        classmap.hermitian_constrain(p)


@pytest.mark.parametrize("values, violated", [
    ((1, 1, 0, -1e308, 1, 1e308, 0, 0, 0), ["m41 must equal conj(m14)", "m13 must equal -m22 m14 / m12"]),
    ((1, 1e200, 0, 0, 1, 0, 0, 0, 0), ["m11 m22 must equal m12^2"]),
    ((1, 1, 0, 1.5e308 + 1.5e308j, 1, 0, 0, 0, 0), ["m41 must equal conj(m14)", "m13 must equal -m22 m14 / m12"]),
    ((1, 1e-300, 0, 1e300, 1, 1e300, 0, 0, 0), ["m11 m22 must equal m12^2", "m13 must equal -m22 m14 / m12"]),
    ((1, 1, 0, 0, 0, 0, 0, 0, 0), ["m11 m22 must equal m12^2", "m44 must equal -m12 m43 / m22"]),
], ids=["gap-overflows", "square-overflows", "modulus-overflows", "expected-overflows", "m22-zero"])
def test_hermitian_constrain_lists_relations_beyond_float64(values, violated):
    """A relation whose gap or expected value does not fit in float64 is
    violated; the call raises no warning and no other exception."""
    with pytest.raises(ValueError) as excinfo:
        classmap.hermitian_constrain(classmap.MappingParams(*values))
    assert str(excinfo.value) == "self-adjointness relations violated: " + "; ".join(violated)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable: a nonzero spinor with sigma = omega = 0 and K = S = 0 "
        "cannot exist (its aggregate would be a lightlike current of matrix "
        "rank 2, but 4 psi psibar has rank 1), so self-adjoint mapping images "
        "keep K and S; see the decisions ledger"
    ),
)
def test_hermitian_image_kills_K_and_S(rng):
    p = classmap.random_hermitian_params(rng)
    m = classmap.hermitian_constrain(p)
    phi = generate(LounestoClass.C1, seed=1, count=1)[0]
    mapped = classmap.map_to_class4(m, phi)
    b = bilinear_covariants(mapped.spinor)
    n2 = mapped.spinor.norm() ** 2
    print(f"measured |K| = {np.linalg.norm(b.K) / n2:.3f}, "
          f"|S| = {np.linalg.norm(b.S) / n2:.3f} (relative)")
    assert np.linalg.norm(b.K) < 1e-10 * n2
    assert np.linalg.norm(b.S) < 1e-10 * n2


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable for the same reason as the K = S = 0 claim: generic "
        "self-adjoint mapping images keep the full flag-dipole pattern and "
        "classify as class 4; see the decisions ledger"
    ),
)
def test_hermitian_image_never_class_four(rng):
    for seed in range(20):
        p = classmap.random_hermitian_params(rng)
        m = classmap.hermitian_constrain(p)
        phi = generate(LounestoClass.C1, seed=seed, count=1)[0]
        mapped = classmap.map_to_class4(m, phi)
        assert classify(mapped.spinor).lounesto_class is not LounestoClass.C4


# sha256 of the parameter stacks random_params and random_hermitian_params
# draw for seeds 0-199, each followed by the generator's next rng.random()
PARAMETER_STREAM = "73c6596e6c29326ee56e1816cf56993356a51b05b23a00999a6aa50b0cfac9b1"


def test_parameter_draws_keep_their_stream():
    """Both draws read their complex normals through lounesto._complex_vector,
    on the stream of drawing each real part, then its imaginary part."""
    digest = hashlib.sha256()
    for seed in range(200):
        for draw in (classmap.random_params, classmap.random_hermitian_params):
            rng = np.random.default_rng(seed)
            digest.update(draw(rng).stack().tobytes())
            digest.update(np.float64(rng.random()).tobytes())
    assert digest.hexdigest() == PARAMETER_STREAM
