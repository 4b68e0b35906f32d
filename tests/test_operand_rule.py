"""One operand rule for the algebra records' arithmetic.

Multivector, Quaternion and QuatMatrix2 take +, - and unary - with a record
of their own type and tags, and * by a number, or row by row by an array of
the batch shape, on either side: a factor whose dtype is not bool and casts
to the record's within its kind, so only a Multivector takes a complex one.
Any other operand is a TypeError: a scaling names the record's noun and the
operand's type, and + or - with another type is Python's unsupported
operand error.  QuatMatrix2's -, unary - and * are the bits of its scale by
-1 and by the factor.  The products (geometric, Hamilton, dot and @) and
isclose read their operand through Record._operand, which names the type
it expected and the type it got.  So do the products, rep_matrix, aggregate,
the residual functions, classify and reconstruct of a record of the wrong
type in first position, through Record._expect; bilinear_covariants keeps
its documented ValueError.
"""

import numpy as np
import pytest

from spinorspace.bilinears import bilinear_covariants
from spinorspace.clifford import Signature, geometric_product, left_mul_matrix, rep_matrix, right_mul_matrix, scalar
from spinorspace.fierz import aggregate, fpk_residuals, generalized_fpk_residuals, reconstruct
from spinorspace.lounesto import classify
from spinorspace.spinor_forms import ClassicalSpinor, Quaternion, quat_matrix


def quaternion():
    return Quaternion(1.0)


def quat_matrix_of(q):
    return quat_matrix(q, q, q, q)


def spinor():
    return ClassicalSpinor([1, 2j, 0.5, 1 + 1j])


TABLE = {
    "multivector-times-str": (lambda: scalar(1.0) * "2", "^cannot scale a multivector by str$"),
    "quaternion-times-str": (lambda: quaternion() * "2", "^cannot scale a quaternion by str$"),
    "multivector-times-bool": (lambda: scalar(1.0) * True, "^cannot scale a multivector by bool$"),
    "quat-matrix-scale-bool": (lambda: quat_matrix_of(quaternion()).scale(True), "^cannot scale a quaternion by bool$"),
    "quaternion-times-complex": (lambda: quaternion() * 1j, "^cannot scale a quaternion by complex$"),
    "quaternion-times-none": (lambda: quaternion() * None, "^cannot scale a quaternion by NoneType$"),
    "multivector-plus-float": (lambda: scalar(1.0) + 1.0, "^unsupported operand type"),
    "multivector-plus-quaternion": (lambda: scalar(1.0) + quaternion(), "^unsupported operand type"),
    "quaternion-plus-multivector": (lambda: quaternion() + scalar(1.0), "^unsupported operand type"),
    "multivector-minus-float": (lambda: scalar(1.0) - 1.0, "^unsupported operand type"),
    "multivector-times-quaternion": (lambda: scalar(1.0) * quaternion(), "^cannot scale a multivector by Quaternion$"),
    "quaternion-times-multivector": (lambda: quaternion() * scalar(1.0), "^cannot scale a quaternion by Multivector$"),
    "quaternion-dot-multivector": (lambda: quaternion().dot(scalar(1.0)), "^expected a Quaternion, got Multivector$"),
    "quat-matrix-matmul-quaternion": (lambda: quat_matrix_of(quaternion()) @ quaternion(),
                                      "^expected a QuatMatrix2, got Quaternion$"),
    "quat-matrix-matmul-float": (lambda: quat_matrix_of(quaternion()) @ 2.0, "^expected a QuatMatrix2, got float$"),
    "geometric-product-quaternion": (lambda: geometric_product(scalar(1.0), quaternion()),
                                     "^expected a Multivector, got Quaternion$"),
    "multivector-isclose-quaternion": (lambda: scalar(1.0).isclose(quaternion()),
                                       "^expected a Multivector, got Quaternion$"),
    "quaternion-isclose-float": (lambda: quaternion().isclose(2.0), "^expected a Quaternion, got float$"),
    # a record of the wrong type as the first argument of a function
    "geometric-product-of-spinors": (lambda: geometric_product(spinor(), spinor()),
                                     "^expected a Multivector, got ClassicalSpinor$"),
    "left-mul-matrix-spinor": (lambda: left_mul_matrix(spinor()), "^expected a Multivector, got ClassicalSpinor$"),
    "right-mul-matrix-spinor": (lambda: right_mul_matrix(spinor()), "^expected a Multivector, got ClassicalSpinor$"),
    "rep-matrix-spinor": (lambda: rep_matrix(spinor()), "^expected a Multivector, got ClassicalSpinor$"),
    "aggregate-spinor": (lambda: aggregate(spinor()), "^expected a BilinearSet, got ClassicalSpinor$"),
    "fpk-residuals-spinor": (lambda: fpk_residuals(spinor()), "^expected a BilinearSet, got ClassicalSpinor$"),
    "generalized-residuals-spinor": (lambda: generalized_fpk_residuals(spinor(), bilinear_covariants(spinor())),
                                     "^expected a Multivector, got ClassicalSpinor$"),
    "classify-bilinears": (lambda: classify(bilinear_covariants(spinor())),
                           "^expected a ClassicalSpinor, got BilinearSet$"),
    "reconstruct-spinor": (lambda: reconstruct(spinor(), spinor()), "^expected a Multivector, got ClassicalSpinor$"),
}


@pytest.mark.parametrize("call, message", TABLE.values(), ids=TABLE.keys())
def test_an_operand_outside_the_rule_is_a_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_what_the_rule_keeps():
    """Other tags, complex factors of a multivector, lists and arrays on the left,
    and bilinear_covariants' ValueError; non-finite factors are tests/test_overflow_home.py's."""
    with pytest.raises(ValueError, match="^expected a ClassicalSpinor, got Multivector$"):
        bilinear_covariants(scalar(1.0))
    with pytest.raises(ValueError, match="^signature mismatch: minkowski vs euclidean$"):
        scalar(1.0) - scalar(1.0, Signature.EUCLIDEAN)
    assert (scalar(1.0) * 1j).coeffs[0] == 1j
    assert (quaternion() * [1.0, 2.0]).w.tolist() == [1.0, 2.0]
    left = np.array([1.0, 2.0]) * quaternion()
    assert type(left) is Quaternion and left.w.tolist() == [1.0, 2.0]


def test_quat_matrix_arithmetic_is_its_scaling():
    rng = np.random.default_rng(24)
    a, b = (quat_matrix_of(Quaternion(*rng.standard_normal((4, 3)) * 10.0 ** rng.uniform(-100, 100, 3)))
            for _ in range(2))
    f = rng.standard_normal(3)
    assert (a - b).stack().tobytes() == (a + b.scale(-1.0)).stack().tobytes()
    assert (-a).stack().tobytes() == a.scale(-1.0).stack().tobytes()
    assert (a * f).stack().tobytes() == (f * a).stack().tobytes() == a.scale(f).stack().tobytes()
