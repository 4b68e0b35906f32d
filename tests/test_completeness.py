"""Fierz completeness, and the one classification threshold it gives.

The sixteen stored covariants are the sandwiches of psi with gamma0 Gamma_A
(S at its frozen scale of 1/2): sixteen unitary matrices, orthogonal under
the trace, so the completeness relation gives component_norm()^2 = 4 |psi|^4
for every spinor, in both representations and through the Euclidean forms
(Nishi, Am. J. Phys. 73, 1160 (2005); Crawford, J. Math. Phys. 26, 1439
(1985)).  classify thresholds at tol |psi|^2 and classify_bilinears at
tol component_norm() / 2, so the two agree on every spinor's covariants
wherever no covariant group lies within rounding of its threshold.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinorspace import clifford as cl
from spinorspace import lounesto
from spinorspace.bilinears import bilinear_covariants, euclidean_bilinears
from spinorspace.spinor_forms import ClassicalSpinor

EPS = np.finfo(float).eps
# relative rounding of the identity: 5000 draws per kind read at most 7 eps
COMPLETENESS_EPS = 16 * EPS
# the relative band around a threshold where the two classifiers, which
# compute the group norms on different rays, may round apart
BAND = 64 * EPS


@given(hnp.arrays(np.float64, 8, elements=st.floats(-1.0, 1.0)), st.floats(-100.0, 100.0),
       st.sampled_from(["weyl", "dirac", "euclidean"]))
def test_component_norm_squared_is_four_psi_to_the_fourth(parts, exponent, kind):
    """At scales 10^U(-100, 100), where |psi|^4 itself leaves float64, the
    identity is read on psi's power-of-two ray."""
    rep = cl.DIRAC if kind == "dirac" else cl.WEYL
    ray, _ = ClassicalSpinor((parts[:4] + 1j * parts[4:]) * 10.0 ** exponent, rep)._on_ray()
    b = euclidean_bilinears(ray) if kind == "euclidean" else bilinear_covariants(ray)
    fourth = ray.norm() ** 4
    assert abs(b.component_norm() ** 2 - 4 * fourth) <= COMPLETENESS_EPS * 4 * fourth


def spinors(rng, rows: int) -> np.ndarray:
    """Weyl components: generic rows, then rows whose chiral halves are made
    orthogonal (sigma = omega = 0, classes 4-6), some with a zero half."""
    c = rng.standard_normal((rows, 4)) + 1j * rng.standard_normal((rows, 4))
    u, v = c[rows // 2:, :2], c[rows // 2:, 2:]
    v -= u * (np.sum(u.conj() * v, axis=-1) / np.sum(u.conj() * u, axis=-1))[:, None]
    c[-rows // 8:, rng.integers(2) * 2 + np.arange(2)] = 0
    return c


@given(st.integers(0, 2 ** 32 - 1), st.floats(-8.0, np.log10(0.5)), st.sampled_from([cl.WEYL, cl.DIRAC]))
def test_both_classifiers_share_one_threshold(seed, log_tol, rep):
    """classify and classify_bilinears give one class at tol in [1e-8, 0.5],
    but for spinors with a covariant group within BAND of tol |psi|^2."""
    tol = 10.0 ** log_tol
    psi = ClassicalSpinor(spinors(np.random.default_rng(seed), 64), cl.WEYL).to_rep(rep)
    b = bilinear_covariants(psi)
    groups = np.column_stack([np.abs(b.sigma), np.abs(b.omega), *(np.linalg.norm(x, axis=-1) for x in (b.J, b.K, b.S))])
    threshold = tol * psi.norm()[:, None] ** 2
    clear = (np.abs(groups - threshold) > BAND * threshold).all(axis=-1)
    assert clear.sum() >= 32
    by_spinor = np.asarray(lounesto.classify(psi, tol).lounesto_class)[clear]
    by_covariants = np.asarray(lounesto.classify_bilinears(b, tol))[clear]
    assert by_spinor.tolist() == by_covariants.tolist()
