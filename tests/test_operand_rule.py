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
it expected and the type it got.
"""

import numpy as np
import pytest

from spinorspace.clifford import Signature, geometric_product, scalar
from spinorspace.spinor_forms import Quaternion, quat_matrix


def quaternion():
    return Quaternion(1.0)


def quat_matrix_of(q):
    return quat_matrix(q, q, q, q)


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
}


@pytest.mark.parametrize("call, message", TABLE.values(), ids=TABLE.keys())
def test_an_operand_outside_the_rule_is_a_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_what_the_rule_keeps():
    """Other tags, complex factors of a multivector, lists and arrays on the left;
    non-finite factors are tests/test_overflow_home.py's."""
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
