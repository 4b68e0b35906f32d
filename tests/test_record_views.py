"""One kind of named view, one FPK pass rule, one classify row layout.

Every named view of a record type is a property computed on each read from
the record's one read-only array, so reading a view leaves the record as it
was built: only Record.__init__ and Record._of write a record's __dict__.
fierz._fpk_check is the one rule deciding whether covariants pass the FPK
identities, and cli._classify_rows the one layout of a classify row, so
FpkResiduals has no pass method and the report types no dict renderer.
"""

import numpy as np
import pytest

from spinorspace import clifford
from spinorspace.bilinears import BilinearSet
from spinorspace.classmap import MappingMatrix, MappingParams
from spinorspace.clifford import WEYL, Multivector, Signature
from spinorspace.fierz import FpkResiduals, SingularAggregateParams
from spinorspace.lounesto import ClassificationReport
from spinorspace.spinor_forms import AlgebraicSpinor, ClassicalSpinor, QuatMatrix2, Quaternion, SpinorOperator


def record_types() -> set:
    found, todo = set(), [clifford.Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls)
            todo.append(cls)
    return found


def records(batch: tuple) -> list:
    """One record of each type, of the batch shape where the type takes one."""
    rng = np.random.default_rng(22)

    def values(*shape, complex_=False):
        v = rng.standard_normal(batch + shape)
        return v + 1j * rng.standard_normal(batch + shape) if complex_ else v

    q = Quaternion(*np.moveaxis(values(4), -1, 0))
    params = MappingParams(*np.moveaxis(values(9, complex_=True), -1, 0))
    ideal = np.zeros(batch + (4, 4), dtype=np.complex128)
    ideal[..., 0] = values(4, complex_=True)
    batched = [
        Multivector(Signature.MINKOWSKI, values(16, complex_=True)),
        BilinearSet.from_stack(values(16)),
        FpkResiduals(*np.moveaxis(values(4), -1, 0)),
        q,
        QuatMatrix2(((q, q), (q, q))),
        ClassicalSpinor(values(4, complex_=True), WEYL),
        SpinorOperator(q, q),
        AlgebraicSpinor(ideal),
        params,
        MappingMatrix(values(4, 4, complex_=True), params),
    ]
    if batch:
        return batched
    return batched + [SingularAggregateParams([1, 1, 0, 0], [0, 0, 1, 0], 0.5)]


def properties(record) -> list:
    return [name for name in dir(type(record)) if isinstance(getattr(type(record), name), property)]


def test_every_view_is_a_property():
    assert not hasattr(clifford, "_View")
    types = record_types()
    assert len(types) == 11
    for cls in types:
        for name, _ in cls._views:
            assert type(vars(cls)[name]) is property, f"{cls.__name__}.{name}"


@pytest.mark.parametrize("batch", [(), (2, 3)], ids=["single", "batch"])
def test_reading_a_view_leaves_the_record_as_built(batch):
    built = records(batch)
    assert {type(r) for r in built} == (record_types() if not batch else record_types() - {SingularAggregateParams})
    for record in built:
        before = dict(vars(record))
        for name, index in record._views:
            part = record.stack() if index is ... else record.stack()[..., index]
            assert np.asarray(getattr(record, name)).tobytes() == part.tobytes()
        for name in properties(record):
            getattr(record, name)
        assert vars(record).keys() == before.keys()
        assert all(vars(record)[key] is value for key, value in before.items())


def test_one_pass_rule_and_one_row_layout():
    assert not hasattr(FpkResiduals, "passes")
    assert not hasattr(ClassificationReport, "as_dict")
    assert not hasattr(BilinearSet, "as_dict")
    assert hasattr(MappingParams, "as_dict")
