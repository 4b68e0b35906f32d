"""The contract of the array types' public constructors.

Each constructor keeps one read-only copy of what it is given, bit for bit
the array numpy makes of the input, with its named views equal to the
fields; a batch holds row by row what the single constructions hold; and an
input it rejects raises ValueError with a fixed message.  Two records are
equal when their type, tags and array are; records are unhashable and
immutable.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinorspace import clifford as cl
from spinorspace.bilinears import BilinearSet
from spinorspace.classmap import MappingMatrix, MappingParams
from spinorspace.clifford import DIRAC, WEYL, Multivector, Signature
from spinorspace.fierz import FpkResiduals, SingularAggregateParams
from spinorspace.spinor_forms import AlgebraicSpinor, ClassicalSpinor, QuatMatrix2, Quaternion, SpinorOperator

# every finite float64: signed zeros, subnormals and magnitudes up to the largest
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
BATCHES = st.sampled_from([(), (1,), (3,), (2, 3)])
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
SIGNATURES = st.sampled_from(list(Signature))
REPS = st.sampled_from([WEYL, DIRAC])
PARAMS = MappingParams(1, 2, 3, 4, 5, 6, 7, 8, 9)


def reals(shape, elements=FLOATS):
    return hnp.arrays(np.float64, shape, elements=elements)


@st.composite
def complexes(draw, shape, elements=FLOATS):
    c = np.empty(shape, dtype=np.complex128)
    c.real, c.imag = draw(reals(shape, elements)), draw(reals(shape, elements))
    return c


@st.composite
def given_as(draw, array):
    """The array itself or the same values as nested lists."""
    return array.tolist() if array.ndim and draw(st.booleans()) else array


def wrong_length(n):
    return st.integers(0, 20).filter(lambda k: k != n)


def message(text):
    return "^" + re.escape(text) + "$"


def assert_kept(kept, given_input, dtype):
    """kept is a read-only copy of given_input, bit for bit np.array(given_input, dtype)."""
    expected = np.array(given_input, dtype=dtype)
    assert kept.dtype == expected.dtype and kept.shape == expected.shape
    assert kept.tobytes() == expected.tobytes()
    assert not kept.flags.writeable
    if isinstance(given_input, np.ndarray):
        assert not np.shares_memory(kept, given_input)


def assert_views(record, array, views):
    """Each named view holds its part of the array bit for bit: a float for
    one entry of a single item, an array otherwise."""
    for name, index in views:
        view, part = getattr(record, name), array[..., index]
        if part.ndim == 0:
            assert type(view) is float
        assert np.asarray(view).tobytes() == part.tobytes()


def assert_rows(batch_array, single_array_of, n_rows):
    for i in np.ndindex(n_rows):
        assert batch_array[i].tobytes() == single_array_of(i).tobytes()


@given(st.data(), BATCHES, SIGNATURES)
def test_multivector(data, batch, signature):
    coeffs = data.draw(complexes(batch + (16,)))
    mv = Multivector(signature, data.draw(given_as(coeffs)))
    assert_kept(mv.coeffs, coeffs, np.complex128)
    assert mv.signature is signature
    assert_rows(mv.coeffs, lambda i: Multivector(signature, coeffs[i]).coeffs, batch)
    shape = data.draw(BATCHES) + (data.draw(wrong_length(16)),)
    for wrong in (np.zeros(shape), 1.0):
        with pytest.raises(ValueError, match=message(f"expected 16 blade coefficients, got shape {np.shape(wrong)}")):
            Multivector(signature, wrong)


QUATERNION_VIEWS = (("w", 0), ("x", 1), ("y", 2), ("z", 3))


@given(st.data(), BATCHES)
def test_quaternion(data, batch):
    parts = [data.draw(reals(batch)) for _ in range(4)]
    q = Quaternion(*(data.draw(given_as(p)) for p in parts))
    assert_kept(q.as_array(), np.stack(parts, axis=-1), float)
    assert q.stack() is q.as_array()
    assert_views(q, q.as_array(), QUATERNION_VIEWS)
    assert_rows(q.as_array(), lambda i: Quaternion(*(p[i] for p in parts)).as_array(), batch)
    assert Quaternion().as_array().tolist() == [0.0] * 4
    with pytest.raises(ValueError, match="cannot be broadcast"):
        Quaternion(np.zeros(2), np.zeros(3))


@given(st.data(), BATCHES)
def test_quat_matrix(data, batch):
    arrays = [data.draw(reals(batch + (4,))) for _ in range(4)]
    quats = [Quaternion(*np.moveaxis(a, -1, 0)) for a in arrays]
    m = QuatMatrix2(((quats[0], quats[1]), (quats[2], quats[3])))
    expected = np.stack(arrays, axis=-2).reshape(batch + (2, 2, 4))
    assert_kept(m.stack(), expected, float)
    for r, c in np.ndindex(2, 2):
        entry = m.entries[r][c]
        assert type(entry) is Quaternion and entry.as_array().tobytes() == arrays[2 * r + c].tobytes()
    def single(i):
        return QuatMatrix2(tuple(tuple(Quaternion(*a[i]) for a in arrays[k:k + 2]) for k in (0, 2))).stack()

    assert_rows(m.stack(), single, batch)
    with pytest.raises(ValueError, match="cannot be broadcast"):
        QuatMatrix2(((quats[0], Quaternion(np.zeros(2))), (Quaternion(np.zeros(3)), quats[3])))


@given(st.data(), BATCHES, REPS)
def test_classical_spinor(data, batch, rep):
    comps = data.draw(complexes(batch + (4,)))
    psi = ClassicalSpinor(data.draw(given_as(comps)), rep)
    assert_kept(psi.components, comps, np.complex128)
    assert psi.rep is rep and ClassicalSpinor(comps).rep is DIRAC
    assert_rows(psi.components, lambda i: ClassicalSpinor(comps[i], rep).components, batch)
    shape = batch + (data.draw(wrong_length(4)),)
    with pytest.raises(ValueError, match=message(f"expected 4 components, got shape {shape}")):
        ClassicalSpinor(np.zeros(shape), rep)
    bad = comps.copy()
    spot = data.draw(st.sampled_from(list(np.ndindex(bad.shape))))
    bad.view(np.float64).reshape(bad.shape + (2,))[spot + (data.draw(st.integers(0, 1)),)] = data.draw(NON_FINITE)
    with pytest.raises(ValueError, match=message("spinor components must be finite")):
        ClassicalSpinor(data.draw(given_as(bad)), rep)


@given(st.data(), BATCHES)
def test_algebraic_spinor(data, batch):
    m = np.zeros(batch + (4, 4), dtype=np.complex128)
    m[..., 0] = data.draw(complexes(batch + (4,)))
    xi = AlgebraicSpinor(data.draw(given_as(m)))
    assert_kept(xi.matrix, m, np.complex128)
    assert_rows(xi.matrix, lambda i: AlgebraicSpinor(m[i]).matrix, batch)
    shape = batch + (4, data.draw(wrong_length(4)))
    with pytest.raises(ValueError, match=message(f"expected a 4x4 matrix, got shape {shape}")):
        AlgebraicSpinor(np.zeros(shape))
    # an entry off the first column as large as the largest modulus; the
    # draw stays where that modulus is finite, since the check scales with it
    m[..., 0] = data.draw(complexes(batch + (4,), st.floats(-1e300, 1e300)))
    spot = data.draw(st.sampled_from(list(np.ndindex(batch + (4, 3)))))
    m[spot[:-1] + (spot[-1] + 1,)] = max(1.0, float(np.abs(m).max()))
    with pytest.raises(ValueError, match=message("ideal element must have nonzero entries in the first column only")):
        AlgebraicSpinor(m)


BILINEAR_VIEWS = (("sigma", 0), ("omega", 1), ("J", slice(2, 6)), ("K", slice(6, 10)), ("S", slice(10, 16)))


@given(st.data(), BATCHES, SIGNATURES)
def test_bilinear_set(data, batch, signature):
    v = data.draw(reals(batch + (16,)))
    fields = [v[..., 0], v[..., 1], v[..., 2:6], v[..., 6:10], v[..., 10:]]
    b = BilinearSet(*(data.draw(given_as(f)) for f in fields), signature)
    assert_kept(b.stack(), v, float)
    assert_views(b, b.stack(), BILINEAR_VIEWS)
    assert b.signature is signature
    assert BilinearSet(*fields).signature is Signature.MINKOWSKI
    assert_rows(b.stack(), lambda i: BilinearSet(*(f[i] for f in fields), signature).stack(), batch)
    wrong = [np.zeros(batch + (data.draw(wrong_length(n)),)) for n in (4, 6)]
    for k, (replacement, text) in enumerate([
            (wrong[0], "J and K must have 4 components"),
            (wrong[1], "S must have 6 components (01, 02, 03, 12, 13, 23)"),
            (np.zeros(batch + (2,)), "sigma and omega must have the same batch shape")]):
        bad = list(fields)
        bad[(data.draw(st.sampled_from([2, 3])), 4, 1)[k]] = replacement
        with pytest.raises(ValueError, match=message(text)):
            BilinearSet(*bad, signature)
    bad_v = v.copy()
    bad_v[data.draw(st.sampled_from(list(np.ndindex(bad_v.shape))))] = data.draw(NON_FINITE)
    with pytest.raises(ValueError, match=message("covariants must be finite")):
        BilinearSet(bad_v[..., 0], bad_v[..., 1], bad_v[..., 2:6], bad_v[..., 6:10], bad_v[..., 10:], signature)


@given(st.data(), BATCHES, SIGNATURES)
def test_bilinear_set_from_stack(data, batch, signature):
    v = data.draw(reals(batch + (16,)))
    b = BilinearSet.from_stack(data.draw(given_as(v)), signature)
    assert_kept(b.stack(), v, float)
    assert_views(b, b.stack(), BILINEAR_VIEWS)
    assert b.signature is signature and BilinearSet.from_stack(v).signature is Signature.MINKOWSKI
    assert_rows(b.stack(), lambda i: BilinearSet.from_stack(v[i], signature).stack(), batch)
    shape = batch + (data.draw(wrong_length(16)),)
    with pytest.raises(ValueError, match=message(f"expected 16 covariant components, got shape {shape}")):
        BilinearSet.from_stack(np.zeros(shape), signature)
    v = v.copy()
    v[data.draw(st.sampled_from(list(np.ndindex(v.shape))))] = data.draw(NON_FINITE)
    with pytest.raises(ValueError, match=message("covariants must be finite")):
        BilinearSet.from_stack(data.draw(given_as(v)), signature)


@given(st.data(), BATCHES)
def test_fpk_residuals(data, batch):
    parts = [data.draw(reals(batch)) for _ in range(4)]
    r = FpkResiduals(*(data.draw(given_as(p)) for p in parts))
    assert_kept(r.stack(), np.stack(parts, axis=-1), float)
    assert_views(r, r.stack(), (("r1", 0), ("r2", 1), ("r3", 2), ("r4", 3)))
    assert_rows(r.stack(), lambda i: FpkResiduals(*(p[i] for p in parts)).stack(), batch)
    with pytest.raises(ValueError, match="cannot be broadcast"):
        FpkResiduals(np.zeros(2), np.zeros(3), 0.0, 0.0)


@given(st.data(), BATCHES)
def test_spinor_operator(data, batch):
    halves = [data.draw(reals(batch + (4,))) for _ in range(2)]
    op = SpinorOperator(*(Quaternion(*np.moveaxis(h, -1, 0)) for h in halves))
    assert_kept(op.stack(), np.concatenate(halves, axis=-1), float)
    for q, half in zip((op.q1, op.q2), halves):
        assert type(q) is Quaternion and q.as_array().tobytes() == half.tobytes()
        assert np.shares_memory(q.as_array(), op.stack())
    assert SpinorOperator._of(op.stack().copy()) == op
    assert_rows(op.stack(), lambda i: SpinorOperator(Quaternion(*halves[0][i]), Quaternion(*halves[1][i])).stack(),
                batch)


@given(st.data())
def test_singular_aggregate_params(data):
    j, s = data.draw(reals((4,))), data.draw(reals((4,)))
    h = data.draw(FLOATS)
    p = SingularAggregateParams(data.draw(given_as(j)), data.draw(given_as(s)), h)
    assert_kept(p.stack(), np.concatenate([j, s, [h]]), float)
    assert_views(p, p.stack(), (("J", slice(0, 4)), ("s", slice(4, 8)), ("h", 8)))
    shape = data.draw(st.sampled_from([(3,), (5,), (2, 4), ()]))
    for bad in ((np.zeros(shape), s), (j, np.zeros(shape))):
        with pytest.raises(ValueError, match=message("J and s must have 4 components")):
            SingularAggregateParams(*bad, h)


def test_operator_and_aggregate_params_are_unhashable_and_immutable(rng):
    q = Quaternion(*rng.standard_normal(4))
    for item in (SpinorOperator(q, q), SingularAggregateParams([1, 0, 0, 1], [0, 1, 0, 0], 0.5)):
        with pytest.raises(TypeError):
            hash(item)
        for name in ("q1", "J", "h", "_x"):
            with pytest.raises(AttributeError):
                setattr(item, name, 0.0)


@given(st.data())
def test_mapping_matrix(data):
    m = data.draw(complexes((4, 4)))
    mm = MappingMatrix(data.draw(given_as(m)), PARAMS)
    assert_kept(mm.matrix, m, np.complex128)
    assert mm.params is PARAMS
    shape = data.draw(st.sampled_from([(4,), (2, 4, 4), (4, 3), (3, 4), ()]))
    with pytest.raises(ValueError, match=message("mapping matrix must be 4x4")):
        MappingMatrix(np.zeros(shape), PARAMS)


def records(rng):
    """One item of each of the eight types."""
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    m = np.zeros((4, 4), dtype=complex)
    m[:, 0] = c
    q = Quaternion(*rng.standard_normal(4))
    return [cl.scalar(1.5), q, QuatMatrix2(((q, q), (q, q))), ClassicalSpinor(c, WEYL), AlgebraicSpinor(m),
            BilinearSet.from_stack(rng.standard_normal(16)), FpkResiduals(*rng.standard_normal(4)),
            MappingMatrix(m, PARAMS)]


def test_equal_records_compare_equal(rng):
    assert cl.scalar(1.0) == cl.scalar(1.0)
    assert cl.scalar(1.0) != cl.scalar(2.0)
    for first, second in zip(records(np.random.default_rng(5)), records(np.random.default_rng(5))):
        assert first is not second
        assert (first == second) is True and (first != second) is False


def test_equal_arrays_with_other_tags_differ():
    c = [1, 2j, 3, 4 + 1j]
    assert ClassicalSpinor(c, WEYL) != ClassicalSpinor(c, DIRAC)
    assert cl.scalar(1.0, Signature.MINKOWSKI) != cl.scalar(1.0, Signature.EUCLIDEAN)
    v = np.arange(16.0)
    assert BilinearSet.from_stack(v, Signature.MINKOWSKI) != BilinearSet.from_stack(v, Signature.EUCLIDEAN)
    m = np.eye(4)
    assert MappingMatrix(m, PARAMS) != MappingMatrix(m, MappingParams(1, 2, 3, 4, 5, 6, 7, 8, 10))


def test_records_of_other_types_or_shapes_differ(rng):
    items = records(rng)
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            assert (a == b) is (i == j)
    assert ClassicalSpinor([1, 0, 0, 0]) != ClassicalSpinor([[1, 0, 0, 0]])
    assert Quaternion(1.0) != np.array([1.0, 0.0, 0.0, 0.0])


def test_records_are_unhashable_and_immutable(rng):
    for item in records(rng):
        with pytest.raises(TypeError):
            hash(item)
        for name in ("stack", "_x", "coeffs", "sigma", "w"):
            with pytest.raises(AttributeError):
                setattr(item, name, 0.0)
