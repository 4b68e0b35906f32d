"""The scalar API at its dispatch floor.

One call of each of the ten entry points that the benchmark's API mix times
runs no frame in numpy's fromnumeric.py, the Python-level wrappers behind
np.all, np.take, np.swapaxes and the like, nor in numpy/_core/_methods.py,
where array methods such as ndarray.all and ndarray.any forward: the batch
kernels call numpy through ufuncs, their reductions and the array methods
written in C, so a single spinor pays for no wrapper.  Neither does one call
of the row primitives (norm, component_norm, max_abs), of the fierz,
lounesto and topology calls built on them, of isclose, or of
build_singular_aggregate.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from spinorspace import bilinears, clifford, fierz, lounesto, spinor_forms, topology
from spinorspace.spinor_forms import ClassicalSpinor

CLASS1 = np.array([1, 2j, 0.5, 1 + 1j])
SINGULAR = fierz.SingularAggregateParams((1, 0, 0, 1), (0, 1, 0, 0), 0.5)

ENTRY_POINTS = {
    "construct": lambda psi, b, z: ClassicalSpinor(psi.components, psi.rep),
    "classify": lambda psi, b, z: lounesto.classify(psi),
    "covariants": lambda psi, b, z: bilinears.bilinear_covariants(psi),
    "euclidean": lambda psi, b, z: bilinears.euclidean_bilinears(psi.components),
    "fpk": lambda psi, b, z: fierz.fpk_residuals(b),
    "aggregate": lambda psi, b, z: fierz.aggregate(b),
    "generalized": lambda psi, b, z: fierz.generalized_fpk_residuals(z, b),
    "product": lambda psi, b, z: clifford.geometric_product(z, z),
    "operator": lambda psi, b, z: spinor_forms.classical_from_operator(spinor_forms.operator_from_classical(psi)),
    "algebraic": lambda psi, b, z: spinor_forms.classical_from_algebraic(spinor_forms.algebraic_from_classical(psi)),
}


def frames_run(call) -> set[str]:
    """file:function of every Python frame that call runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(f"{Path(frame.f_code.co_filename).name}:{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


def wrapper_frames(call, rep) -> list[str]:
    """The fromnumeric.py and _methods.py frames of one call on the class-1
    spinor in rep, its covariants and its aggregate."""
    psi = ClassicalSpinor(CLASS1, rep)
    b = bilinears.bilinear_covariants(psi)
    z = fierz.aggregate(b)
    call(psi, b, z)   # the cached tables are built once, with whatever numpy they need
    frames = frames_run(lambda: call(psi, b, z))
    assert frames, "the profile saw no frame"
    return sorted(f for f in frames if f.startswith(("fromnumeric.py:", "_methods.py:")))


@pytest.mark.parametrize("rep", [clifford.WEYL, clifford.DIRAC], ids=str)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_scalar_call_runs_no_fromnumeric_wrapper(name, rep):
    assert wrapper_frames(ENTRY_POINTS[name], rep) == []


# the row primitives and the calls built on them, isclose and the singular
# aggregate's invariants: the reductions are ufunc reductions (np.add.reduce,
# np.maximum.reduce, np.logical_and.reduce, np.logical_or.reduce) and C array
# methods (diagonal, argmax), which give the wrappers' bits
ROW_CALLS = {
    "norm": lambda psi, b, z: psi.norm(),
    "component_norm": lambda psi, b, z: b.component_norm(),
    "max_abs": lambda psi, b, z: z.max_abs(),
    "boomerang_residual": lambda psi, b, z: fierz.boomerang_residual(z, b.sigma),
    "default_probe_spinor": lambda psi, b, z: fierz.default_probe_spinor(z, psi.rep),
    "reconstruct": lambda psi, b, z: fierz.reconstruct(z, fierz.default_probe_spinor(z, psi.rep), psi_ref=psi),
    "classify_bilinears": lambda psi, b, z: lounesto.classify_bilinears(b),
    "fpk_membership": lambda psi, b, z: topology.fpk_membership(b),
    "isclose": lambda psi, b, z: z.isclose(z),
    "build_singular_aggregate": lambda psi, b, z: fierz.build_singular_aggregate(SINGULAR),
}


@pytest.mark.parametrize("name", ROW_CALLS)
def test_row_primitive_runs_no_fromnumeric_wrapper(name):
    assert wrapper_frames(ROW_CALLS[name], clifford.WEYL) == []
