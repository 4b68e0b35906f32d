"""Spin(4) covariance of the Euclidean covariants, a metamorphic oracle.

A rotor R, a product of cos(theta/2) + sin(theta/2) G_i G_j over the six
planes of the Euclidean generator matrices G_a (bilinears.EUCLIDEAN_GENERATORS,
Hermitian, squaring to +1), is unitary and moves a spinor as psi' = R psi.
It induces the rotation Lambda in SO(4) read off R G_a R^-1 = Lambda_ba G_b.
Then sigma and omega are unchanged (the volume element commutes with R), J
and K move to Lambda J and Lambda K, and S, read through the products
G_m G_n, to (Lambda wedge Lambda) S.  None of this depends on the frozen
conventions.  The covariants of psi' are computed from psi' alone, so each
law holds within 1e-14 relative to |psi|^2.
"""

import itertools

import numpy as np

from spinorspace.bilinears import EUCLIDEAN_GENERATORS, euclidean_bilinears
from spinorspace.spinor_forms import BIVECTOR_ORDER

G = np.array(EUCLIDEAN_GENERATORS)
PLANES = list(itertools.combinations(range(4), 2))
MU, NU = np.array(BIVECTOR_ORDER).T
DRAWS = 500
REL = 1e-14


def rotor(thetas: np.ndarray) -> np.ndarray:
    """The 4x4 rotor of one angle per plane, taken in PLANES order."""
    r = np.eye(4, dtype=np.complex128)
    for (i, j), theta in zip(PLANES, thetas):
        r = r @ (np.cos(theta / 2) * np.eye(4) + np.sin(theta / 2) * G[i] @ G[j])
    return r


def induced(r: np.ndarray) -> np.ndarray:
    """Lambda with R G_a R^-1 = Lambda_ba G_b, read with tr(G_a G_b) = 4 delta_ab."""
    moved = r @ G @ np.linalg.inv(r)
    return np.einsum("bij,aji->ba", G, moved).real / 4


def wedge(lam: np.ndarray) -> np.ndarray:
    """Lambda wedge Lambda on bivector components in the stored (01, 02, 03,
    12, 13, 23) order."""
    return lam[MU][:, MU] * lam[NU][:, NU] - lam[MU][:, NU] * lam[NU][:, MU]


def test_generators_are_a_euclidean_clifford_basis():
    for a, b in itertools.product(range(4), repeat=2):
        assert np.array_equal(G[a] @ G[b] + G[b] @ G[a], 2.0 * (a == b) * np.eye(4))
    assert np.array_equal(G, G.conj().transpose(0, 2, 1))


def test_euclidean_covariants_transform_under_spin4(rng):
    psis = rng.standard_normal((DRAWS, 4)) + 1j * rng.standard_normal((DRAWS, 4))
    psis *= 10.0 ** rng.uniform(-50, 50, size=(DRAWS, 1))
    rotors = [rotor(rng.uniform(0.0, 4 * np.pi, size=len(PLANES))) for _ in range(DRAWS)]
    lams = np.array([induced(r) for r in rotors])
    assert np.abs(lams @ lams.transpose(0, 2, 1) - np.eye(4)).max() <= REL
    assert np.abs(np.linalg.det(lams) - 1.0).max() <= REL
    b = euclidean_bilinears(psis)
    moved = euclidean_bilinears(np.einsum("nij,nj->ni", np.array(rotors), psis))
    bound = REL * np.sum(np.abs(psis) ** 2, axis=-1)
    assert np.all(np.abs(moved.sigma - b.sigma) <= bound)
    assert np.all(np.abs(moved.omega - b.omega) <= bound)
    for name in ("J", "K"):
        expected = np.einsum("nab,nb->na", lams, getattr(b, name))
        assert np.all(np.abs(getattr(moved, name) - expected).max(axis=-1) <= bound)
    expected = np.einsum("nab,nb->na", np.array([wedge(lam) for lam in lams]), b.S)
    assert np.all(np.abs(moved.S - expected).max(axis=-1) <= bound)
