"""The scalar API at its dispatch floor.

One call of each of the ten entry points that the benchmark's API mix times
runs no frame in numpy's fromnumeric.py, the Python-level wrappers behind
np.all, np.take, np.swapaxes and the like, nor in numpy/_core/_methods.py,
where array methods such as ndarray.all and ndarray.any forward: the batch
kernels call numpy through ufuncs, their reductions and the array methods
written in C, so a single spinor pays for no wrapper.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from spinorspace import bilinears, clifford, fierz, lounesto, spinor_forms
from spinorspace.spinor_forms import ClassicalSpinor

CLASS1 = np.array([1, 2j, 0.5, 1 + 1j])

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


@pytest.mark.parametrize("rep", [clifford.WEYL, clifford.DIRAC], ids=str)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_scalar_call_runs_no_fromnumeric_wrapper(name, rep):
    psi = ClassicalSpinor(CLASS1, rep)
    b = bilinears.bilinear_covariants(psi)
    z = fierz.aggregate(b)
    call = ENTRY_POINTS[name]
    call(psi, b, z)   # the cached tables are built once, with whatever numpy they need
    frames = frames_run(lambda: call(psi, b, z))
    assert frames, "the profile saw no frame"
    assert sorted(f for f in frames if f.startswith(("fromnumeric.py:", "_methods.py:"))) == []
