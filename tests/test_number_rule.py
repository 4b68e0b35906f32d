"""The number rule: one function, clifford._numbers, decides what counts as
a number for the public record constructors, the scale factors of the
algebra records, the helper constructors and array-taking kernels, and the
command line's files (jsonio.floats).

Ints and floats, Python's or numpy's, pass, and complex numbers pass where
the record holds complex entries; each passes bit for bit as
np.array(input, dtype) holds it.  A bool (numpy's too, or a bool array, or
one hidden in a list of floats), a string, None or an int beyond float
range is refused: a constructor, helper or kernel raises ValueError("<what
it holds> must be ints or floats"), or "... ints, floats or complex
numbers", and a scale factor keeps its TypeError("cannot scale a <noun> by
<type>").
"""

import dataclasses
import re

import numpy as np
import pytest

from spinorspace import bilinears, classmap, clifford, fierz, jsonio, lounesto, spinor_forms, topology
from spinorspace.bilinears import BilinearSet
from spinorspace.classmap import MappingMatrix, MappingParams
from spinorspace.clifford import Multivector, Signature
from spinorspace.fierz import FpkResiduals, SingularAggregateParams
from spinorspace.spinor_forms import AlgebraicSpinor, ClassicalSpinor, QuatMatrix2, Quaternion

PARAMS = MappingParams(1, 2, 3, 4, 5, 6, 7, 8, 9)

# each public constructor with one slot of its input filled by x, the slot's
# shape, the dtype it holds, what its messages call its entries, and the view
# of the record that holds the slot
CONSTRUCTORS = {
    "Multivector": (lambda x: Multivector(Signature.MINKOWSKI, x), (16,), complex, "blade coefficients",
                    lambda r: r.coeffs),
    "Quaternion": (lambda x: Quaternion(1.0, x, 2, 3.5), (2,), float, "quaternion components", lambda r: r.x),
    "ClassicalSpinor": (ClassicalSpinor, (4,), complex, "spinor components", lambda r: r.components),
    "AlgebraicSpinor": (lambda x: AlgebraicSpinor([[v, 0.0, 0.0, 0.0] for v in x]), (4,), complex,
                        "ideal element entries", lambda r: r.matrix[:, 0]),
    "BilinearSet": (lambda x: BilinearSet(1.0, 0.0, [0.0] * 4, x, [0] * 6), (4,), float, "covariants", lambda r: r.K),
    "BilinearSet.from_stack": (BilinearSet.from_stack, (16,), float, "covariants", lambda r: r.stack()),
    "FpkResiduals": (lambda x: FpkResiduals(0.0, 0.0, x, 0.0), (2,), float, "residuals", lambda r: r.r3),
    "SingularAggregateParams": (lambda x: SingularAggregateParams([1, 0, 0, 1], x, 0.5), (4,), float,
                                "aggregate parameters", lambda r: r.s),
    "SingularAggregateParams.h": (lambda x: SingularAggregateParams([1, 0, 0, 1], [0, 1, 0, 0], x), (), float,
                                  "aggregate parameters", lambda r: np.asarray(r.h)),
    "MappingParams": (lambda x: MappingParams(1, 2, x, 4, 5, 6, 7, 8, 9), (2,), complex, "mapping parameters",
                      lambda r: r.m13),
    "MappingMatrix": (lambda x: MappingMatrix([x[k:k + 4] for k in range(0, 16, 4)], PARAMS), (16,), complex,
                      "mapping matrix entries", lambda r: r.matrix.reshape(16)),
}

# each algebra record scaled, a batch of two, with the scaling by a factor
# x and the noun of its messages
SCALINGS = {
    "Multivector": (Multivector(Signature.MINKOWSKI, np.arange(32).reshape(2, 16) * (0.5 - 1.5j)), lambda r, x: r * x,
                    "multivector"),
    "Quaternion": (Quaternion([1.0, -2.0], 0.5, 3.0, -0.25), lambda r, x: x * r, "quaternion"),
    "QuatMatrix2": (QuatMatrix2(((Quaternion([1.0, -2.0], 0.5),) * 2,) * 2), lambda r, x: r.scale(x), "quaternion"),
}

# each helper constructor and array-taking kernel with one slot of its input
# filled by x, the slot's shape, the dtype it reads and what its messages
# call the numbers; each reads the slot through the rule as it is, before any
# arithmetic, so its result on x is its result on np.array(x, dtype)
PSI = ClassicalSpinor([1, 2j, 0.5, 1 + 1j], clifford.WEYL)
SQUARE = [[1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]
HELPERS = {
    "scalar": (clifford.scalar, (2,), complex, "blade coefficients"),
    "from_blade_dict": (lambda x: clifford.from_blade_dict({(): x[0], (1, 2): x[1]}), (2,), complex,
                        "blade coefficients"),
    "blade": (lambda x: clifford.blade((0, 3), x), (), complex, "blade coefficients"),
    "vector_multivector": (fierz.vector_multivector, (4,), complex, "blade coefficients"),
    "bivector_multivector": (fierz.bivector_multivector, (6,), complex, "blade coefficients"),
    "euclidean_bilinears": (bilinears.euclidean_bilinears, (4,), complex, "spinor components"),
    "euclidean_components_closed_form": (bilinears.euclidean_components_closed_form, (4,), complex,
                                         "spinor components"),
    "regular_sphere_check": (topology.regular_sphere_check, (4,), complex, "spinor components"),
    "minkowski_square": (bilinears.minkowski_square, (4,), float, "covariants"),
    "minkowski_dot.u": (lambda x: bilinears.minkowski_dot(x, [1.0, -2.0, 0.5, 3.0]), (4,), float, "covariants"),
    "minkowski_dot.v": (lambda x: bilinears.minkowski_dot([1.0, -2.0, 0.5, 3.0], x), (4,), float, "covariants"),
    "operator_from_coeffs.s": (lambda x: spinor_forms.operator_from_coeffs(x, [1.0] * 6, 2.0), (), float,
                               "blade coefficients"),
    "operator_from_coeffs.s_bivec": (lambda x: spinor_forms.operator_from_coeffs(1.0, x, 2.0), (6,), float,
                                     "blade coefficients"),
    "operator_from_coeffs.p": (lambda x: spinor_forms.operator_from_coeffs(1.0, [1.0] * 6, x), (), float,
                               "blade coefficients"),
    "constraint_residuals": (classmap.constraint_residuals, (4, 4), complex, "mapping matrix entries"),
    "no_inverse_witness": (classmap.no_inverse_witness, (4, 4), complex, "mapping matrix entries"),
    "winding_report": (lambda x: topology.winding_report([x] + SQUARE + [x]), (2,), float, "covariants"),
    "winding_number": (lambda x: topology.winding_number([x] + SQUARE + [x]), (2,), float, "covariants"),
    "rescale_class_invariance": (lambda x: lounesto.rescale_class_invariance(PSI, x), (), complex,
                                 "scale factors"),
}


def slot(shape, first, second=0.0):
    """Nested lists of the given shape holding first, then second, then zeros."""
    if not shape:
        return first
    size = int(np.prod(shape, dtype=int))
    return np.array([first, second][:size] + [0.0] * (size - 2), dtype=object).reshape(shape).tolist()


REFUSED = {
    "True": lambda shape: slot(shape, True),
    "np.True_": lambda shape: slot(shape, np.True_),
    "bool array": lambda shape: np.ones(shape, dtype=bool),
    "'1'": lambda shape: slot(shape, "1"),
    "np.str_('1')": lambda shape: slot(shape, np.str_("1")),
    "None": lambda shape: slot(shape, None),
    "10**400": lambda shape: slot(shape, 10 ** 400),
    "[1.0, True]": lambda shape: slot(shape, 1.0, True) if shape else [1.0, True],
}

REALS = [0, 7, -3, 2 ** 60 + 1, 2 ** 70, 0.0, -0.0, 1.5, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300,
         -1e300, 1e-300, -1e-300, np.float32(0.1), np.int64(-9), np.uint8(200), np.float64(-0.0)]
COMPLEXES = [1j, -0.0j, complex(-0.0, 0.0), complex(1e300, -5e-324), complex(-1e-300, 1e300), np.complex64(1 - 2j)]


def numbers_for(dtype):
    return REALS + (COMPLEXES if dtype is complex else [])


def rule_message(holds, dtype):
    words = "ints, floats or complex numbers" if dtype is complex else "ints or floats"
    return "^" + re.escape(f"{holds} must be {words}") + "$"


@pytest.mark.parametrize("bad", REFUSED, ids=str)
@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_constructors_refuse_what_is_not_a_number(name, bad):
    build, shape, dtype, holds, _ = CONSTRUCTORS[name]
    with pytest.raises(ValueError, match=rule_message(holds, dtype)):
        build(REFUSED[bad](shape))


@pytest.mark.parametrize("bad", REFUSED, ids=str)
@pytest.mark.parametrize("name", SCALINGS)
def test_scale_factors_refuse_what_is_not_a_number(name, bad):
    record, scale, noun = SCALINGS[name]
    factor = REFUSED[bad]((2,))
    with pytest.raises(TypeError, match=re.escape(f"cannot scale a {noun} by {type(factor).__name__}")):
        scale(record, factor)


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_constructors_keep_numbers_bit_for_bit(name):
    build, shape, dtype, _, view = CONSTRUCTORS[name]
    for number in numbers_for(dtype):
        for given in (slot(shape, number, number), np.full(shape, number)):
            expected = np.array(given, dtype)
            kept = view(build(given))
            assert kept.dtype == expected.dtype and kept.tobytes() == expected.tobytes(), (number, given)


@pytest.mark.parametrize("name", SCALINGS)
def test_scale_factors_keep_numbers_bit_for_bit(name):
    record, scale, _ = SCALINGS[name]
    array = record.stack()
    for number in numbers_for(complex if array.dtype == complex else float):
        for given in (number, slot((2,), number, number), np.full((2,), number)):
            factor = np.broadcast_to(np.array(given, array.dtype), (2,))[(...,) + (None,) * record._rank]
            assert scale(record, given).stack().tobytes() == (array * factor).tobytes(), (number, given)


@pytest.mark.parametrize("bad", REFUSED, ids=str)
@pytest.mark.parametrize("name", HELPERS)
def test_helpers_and_kernels_refuse_what_is_not_a_number(name, bad):
    call, shape, dtype, holds = HELPERS[name]
    with pytest.raises(ValueError, match=rule_message(holds, dtype)):
        call(REFUSED[bad](shape))


def bits(result):
    """The exact bits of a result: records, tuples and report dataclasses
    by their arrays, a raised ValueError by its type and message."""
    if isinstance(result, ValueError):
        return type(result), str(result)
    if isinstance(result, clifford.Record):
        return type(result), bits(result.stack())
    if dataclasses.is_dataclass(result):
        return bits(dataclasses.astuple(result))
    if isinstance(result, tuple):
        return tuple(map(bits, result))
    array = np.asarray(result)
    return array.dtype, array.shape, array.tobytes()


def outcome(call, given):
    try:
        return bits(call(given))
    except ValueError as err:
        return bits(err)


@pytest.mark.parametrize("name", HELPERS)
def test_helpers_and_kernels_keep_numbers_bit_for_bit(name):
    call, shape, dtype, _ = HELPERS[name]
    for number in numbers_for(dtype):
        for given in (slot(shape, number, number), np.full(shape, number)):
            assert outcome(call, given) == outcome(call, np.array(given, dtype)), (number, given)


def test_one_coefficient_per_blade():
    for coeff in ([1.0, 2.0], [[1.0]], np.ones(3)):
        with pytest.raises(ValueError, match="^expected one coefficient per blade$"):
            clifford.blade((0, 1), coeff)


def test_real_records_refuse_complex_numbers():
    for name, (build, shape, dtype, holds, _) in CONSTRUCTORS.items():
        if dtype is float:
            for number in COMPLEXES:
                with pytest.raises(ValueError, match=rule_message(holds, dtype)):
                    build(slot(shape, number))
    for name, (call, shape, dtype, holds) in HELPERS.items():
        if dtype is float:
            for number in COMPLEXES:
                with pytest.raises(ValueError, match=rule_message(holds, dtype)):
                    call(slot(shape, number))
    with pytest.raises(TypeError, match="^cannot scale a quaternion by complex$"):
        Quaternion(1.0) * 1j


def test_aggregate_helicity_is_one_number():
    """h, read through the rule in place of float(h), is still one number."""
    for h in ([0.5], np.array([0.5]), [0.5, 1.0]):
        with pytest.raises(ValueError, match="^h must be one number$"):
            SingularAggregateParams([1, 0, 0, 1], [0, 1, 0, 0], h)


def test_rule_kinds_are_the_same_kind_casts():
    """The array kinds the rule takes for a record's dtype are those of the
    dtypes, bool aside, that numpy casts to it within their kind."""
    for dtype in (np.float64, np.complex128):
        kinds = clifford._NUMBER_RULE[dtype][0]
        for code in np.typecodes["All"]:
            given = np.dtype(code)
            assert (given.kind in kinds) == (given != bool and np.can_cast(given, dtype, "same_kind")), code


def test_files_read_numbers_through_the_rule():
    """jsonio.floats is the rule plus a shape and a finite test: what the
    rule refuses, and nothing else, reads as None."""
    assert jsonio.floats([[1, 2.5], [-0.0, 10 ** 300]], (2, 2)).tolist() == [[1.0, 2.5], [-0.0, 1e300]]
    for bad in ([True, 1.0], ["1", 1.0], [None, 1.0], [10 ** 400, 1.0], [1j, 1.0], [[1.0], 1.0]):
        assert jsonio.floats(bad, (2,)) is None
        with pytest.raises(ValueError, match="^numbers must be ints or floats$"):
            clifford._numbers(bad, np.float64, "numbers")
    assert jsonio.floats([1.0, 2.0], (3,)) is None
    assert jsonio.floats([1e308, np.inf], (2,)) is None
