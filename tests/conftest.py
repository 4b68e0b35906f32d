import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from spinorspace.clifford import Multivector, Signature, WEYL
from spinorspace.spinor_forms import ClassicalSpinor

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def src_env() -> dict:
    """This environment with the checkout's src ahead of any PYTHONPATH, for
    a subprocess that imports the package from the checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_multivector(rng, signature=Signature.MINKOWSKI, real=False):
    c = rng.standard_normal(16)
    if not real:
        c = c + 1j * rng.standard_normal(16)
    return Multivector(signature, c)


def random_spinor(rng, rep=WEYL):
    return ClassicalSpinor(rng.standard_normal(4) + 1j * rng.standard_normal(4), rep)


def ray_angle_sine(u, v):
    """Sine of the angle between the complex rays of u and v, computed from
    the orthogonal rejection so values near zero stay accurate."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    w = u / np.linalg.norm(u)
    rejection = v - w * np.vdot(w, v)
    return float(np.linalg.norm(rejection) / np.linalg.norm(v))
