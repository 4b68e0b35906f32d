"""Spin(1,3) covariance of the covariants, a metamorphic oracle.

A rotor R = (cosh(eta/2) + sinh(eta/2) e0 e_k)(cos(theta/2) - sin(theta/2)
e_i e_j), built from engine products, moves a spinor as psi' = rho(R) psi.
Then sigma and omega are unchanged, J and K transform by the Lorentz
transformation Lambda that R induces on the basis vectors, R~ e_mu R =
Lambda_mu^nu e_nu, and S by Lambda wedge Lambda, read the same way off
R~ e_mu e_nu R.  None of this depends on the frozen conventions.

The class is guaranteed only while e^(2|eta|) < margin: the thresholds are
tol |psi'|^2, which is not Lorentz invariant (J_0 = |psi'|^2 grows up to
e^|eta| |psi|^2 while sigma and omega stay), and a kept covariant's
Euclidean norm shrinks by at most e^-|eta|.  Rapidities are drawn beyond
that bound too, where only the transformation laws are asserted.

Rounding bounds: sigma' and omega' are computed from psi' alone, so they
hold within c eps |psi'|^2.  The reference Lambda J sums entries up to
e^|eta| |psi|^2, |psi'|^2 at its largest, and for a lightlike J boosted
along its direction |psi'|^2 shrinks to e^-|eta| |psi|^2, so J, K and S
are compared within c eps e^|eta| |psi|^2.  The aggregate Z of psi moves to
R Z R~, compared within the same bound, and the spinor rebuilt from it is
rho(R) times the one rebuilt from Z up to a phase: the two span one complex
ray, with a sine of their angle within c eps e^|eta|.  The FPK identities
hold for the covariants of every spinor, so the pass flags of psi' are set
at every drawn rapidity, with residuals within c eps |b'|^2 on its ray.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import ray_angle_sine
from spinorspace.bilinears import bilinear_covariants
from spinorspace.fierz import _fpk_check, aggregate, default_probe_spinor, reconstruct
from spinorspace.clifford import DIRAC, WEYL, basis_vector, blade, geometric_product, rep_matrix, reversion, scalar
from spinorspace.lounesto import DEFAULT_TOL, LounestoClass, classify, generate
from spinorspace.spinor_forms import BIVECTOR_ORDER, ClassicalSpinor
from spinorspace.topology import fpk_membership

EPS = np.finfo(float).eps
C = 32.0
CLASSES = [LounestoClass.C1, LounestoClass.C2, LounestoClass.C3, LounestoClass.C4, LounestoClass.C5, LounestoClass.C6]
PLANES = [(1, 2), (1, 3), (2, 3)]


def rotor(eta, k, theta, plane):
    """(cosh(eta/2) + sinh(eta/2) e0 e_k)(cos(theta/2) - sin(theta/2) e_i e_j)."""
    e = [basis_vector(mu) for mu in range(4)]
    boost = scalar(np.cosh(eta / 2)) + np.sinh(eta / 2) * geometric_product(e[0], e[k])
    rotation = scalar(np.cos(theta / 2)) - np.sin(theta / 2) * geometric_product(e[plane[0]], e[plane[1]])
    return geometric_product(boost, rotation)


def induced(r, blades, coefficients):
    """Rows of the map R~ b R on the given blades, read at the given coefficients."""
    return np.array([geometric_product(geometric_product(reversion(r), blade(b)), r).coeffs[coefficients].real
                     for b in blades])


@given(st.sampled_from(CLASSES), st.sampled_from([WEYL, DIRAC]), st.integers(0, 2 ** 16),
       st.floats(-20.0, 20.0), st.integers(1, 3), st.floats(0.0, 2 * np.pi), st.sampled_from(PLANES))
def test_covariants_transform_under_spin13(cls, rep, seed, eta, k, theta, plane):
    psi = generate(cls, seed, 1, rep)[0]
    r = rotor(eta, k, theta, plane)
    moved = ClassicalSpinor(rep_matrix(r, rep) @ psi.components, rep)
    lam = induced(r, [(mu,) for mu in range(4)], slice(1, 5))
    lam2 = induced(r, BIVECTOR_ORDER, slice(5, 11))
    b, b_moved = bilinear_covariants(psi), bilinear_covariants(moved)

    invariant_bound = C * EPS * moved.norm() ** 2
    assert abs(b_moved.sigma - b.sigma) <= invariant_bound
    assert abs(b_moved.omega - b.omega) <= invariant_bound
    bound = C * EPS * np.exp(abs(eta)) * psi.norm() ** 2
    assert np.abs(b_moved.J - lam @ b.J).max() <= bound
    assert np.abs(b_moved.K - lam @ b.K).max() <= bound
    assert np.abs(b_moved.S - lam2 @ b.S).max() <= bound

    report = classify(psi)
    if np.exp(2 * abs(eta)) < report.margin:
        assert classify(moved).lounesto_class == report.lounesto_class


# the draws of the transformation laws, for the aggregate and reconstruction
spin13_draws = given(st.sampled_from(CLASSES), st.sampled_from([WEYL, DIRAC]), st.integers(0, 2 ** 16),
                     st.floats(-20.0, 20.0), st.integers(1, 3), st.floats(0.0, 2 * np.pi), st.sampled_from(PLANES))


def moved_pair(cls, rep, seed, eta, k, theta, plane):
    """(psi, R, rho(R) psi) of one draw."""
    psi = generate(cls, seed, 1, rep)[0]
    r = rotor(eta, k, theta, plane)
    return psi, r, ClassicalSpinor(rep_matrix(r, rep) @ psi.components, rep)


def rebuilt(z, rep):
    return reconstruct(z, default_probe_spinor(z, rep)).components


@spin13_draws
def test_aggregate_transforms_as_a_sandwich(cls, rep, seed, eta, k, theta, plane):
    psi, r, moved = moved_pair(cls, rep, seed, eta, k, theta, plane)
    z = aggregate(bilinear_covariants(psi))
    sandwich = geometric_product(geometric_product(r, z), reversion(r))
    bound = C * EPS * np.exp(abs(eta)) * psi.norm() ** 2
    assert np.abs(aggregate(bilinear_covariants(moved)).coeffs - sandwich.coeffs).max() <= bound


@spin13_draws
def test_reconstruction_commutes_with_the_rotor(cls, rep, seed, eta, k, theta, plane):
    psi, r, moved = moved_pair(cls, rep, seed, eta, k, theta, plane)
    from_moved = rebuilt(aggregate(bilinear_covariants(moved)), rep)
    moved_rebuilt = rep_matrix(r, rep) @ rebuilt(aggregate(bilinear_covariants(psi)), rep)
    assert ray_angle_sine(from_moved, moved_rebuilt) <= C * EPS * np.exp(abs(eta))


@spin13_draws
def test_fpk_flags_hold_under_spin13(cls, rep, seed, eta, k, theta, plane):
    _, _, moved = moved_pair(cls, rep, seed, eta, k, theta, plane)
    b = bilinear_covariants(moved)
    ray, _ = b._on_ray()
    residuals, flags = _fpk_check(ray, DEFAULT_TOL)
    assert fpk_membership(b) and flags.all()
    assert np.abs(residuals).max() <= C * EPS * ray.component_norm() ** 2
