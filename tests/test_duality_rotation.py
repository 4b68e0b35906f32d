"""The duality (chiral) rotation of a spinor, a metamorphic oracle.

With gamma5 = i rho(e0123), the rotation psi' = (cos theta + i sin theta
gamma5) psi moves the covariants as

    sigma' + i omega' = e^(-2 i theta) (sigma + i omega),
    J' = J,   K' = K,
    S' = cos(2 theta) S + sin(2 theta) *S,

with (*S)_mu_nu = 1/2 eps_mu_nu_rho_sigma S^rho_sigma, eps^0123 = +1 and
indices raised by eta = diag(+1, -1, -1, -1).  The covariants of psi' are
computed from psi' alone, so each law holds within c eps |psi|^2 (the
rotation is unitary).  Rotating by half of Takabayasi's angle
beta = arg(sigma + i omega) leaves omega' = 0 and sigma' = |sigma + i omega|,
a class-2 spinor; the singular classes 4-6 keep their class, since sigma
and omega stay zero, J and K stay, and S' is S rotated within its own
six-dimensional component space.
"""

import itertools

import numpy as np
import pytest

from conftest import random_spinor
from spinorspace.bilinears import bilinear_covariants
from spinorspace.clifford import DIRAC, WEYL, pseudoscalar, rep_matrix
from spinorspace.lounesto import LounestoClass, classify, generate
from spinorspace.spinor_forms import BIVECTOR_ORDER, ClassicalSpinor

EPS = np.finfo(float).eps
C = 32.0
REPS = pytest.mark.parametrize("rep", [WEYL, DIRAC], ids=["weyl", "dirac"])
ETA = np.diag([1.0, -1.0, -1.0, -1.0])
MU, NU = np.array(BIVECTOR_ORDER).T


def levi_civita_lower() -> np.ndarray:
    """eps_mu_nu_rho_sigma, lowered by eta from eps^0123 = +1."""
    upper = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        upper[perm] = np.linalg.det(np.eye(4)[list(perm)])
    return np.einsum("abcd,ai,bj,ck,dl->ijkl", upper, ETA, ETA, ETA, ETA)


LEVI_CIVITA = levi_civita_lower()


def dual(s: np.ndarray) -> np.ndarray:
    """*S in the stored (01, 02, 03, 12, 13, 23) order of the S given in it."""
    lower = np.zeros((4, 4))
    lower[MU, NU], lower[NU, MU] = s, -s
    return 0.5 * np.einsum("ijkl,kl->ij", LEVI_CIVITA, ETA @ lower @ ETA)[MU, NU]


def rotated(psi: ClassicalSpinor, theta: float) -> ClassicalSpinor:
    gamma5 = 1j * rep_matrix(pseudoscalar(), psi.rep)
    return ClassicalSpinor((np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * gamma5) @ psi.components, psi.rep)


@REPS
def test_covariants_transform_under_duality_rotation(rng, rep):
    for _ in range(50):
        psi, theta = random_spinor(rng, rep), rng.uniform(0.0, 2 * np.pi)
        b, b_rot = bilinear_covariants(psi), bilinear_covariants(rotated(psi, theta))
        bound = C * EPS * psi.norm() ** 2
        expected = np.exp(-2j * theta) * (b.sigma + 1j * b.omega)
        assert abs(b_rot.sigma + 1j * b_rot.omega - expected) <= bound
        assert np.abs(b_rot.J - b.J).max() <= bound
        assert np.abs(b_rot.K - b.K).max() <= bound
        assert np.abs(b_rot.S - (np.cos(2 * theta) * b.S + np.sin(2 * theta) * dual(b.S))).max() <= bound


@REPS
def test_half_takabayasi_angle_rotates_to_class_2(rng, rep):
    for _ in range(50):
        psi = random_spinor(rng, rep)
        b = bilinear_covariants(psi)
        moved = rotated(psi, np.angle(b.sigma + 1j * b.omega) / 2)
        assert classify(moved).lounesto_class is LounestoClass.C2
        assert abs(bilinear_covariants(moved).sigma - abs(b.sigma + 1j * b.omega)) <= C * EPS * psi.norm() ** 2


@REPS
@pytest.mark.parametrize("cls", [LounestoClass.C4, LounestoClass.C5, LounestoClass.C6], ids=["c4", "c5", "c6"])
def test_singular_classes_are_duality_invariant(rng, rep, cls):
    for psi in generate(cls, 41, 10, rep):
        assert classify(rotated(psi, rng.uniform(0.0, 2 * np.pi))).lounesto_class is cls
