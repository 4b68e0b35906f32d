"""Identity residuals, the aggregate, singular forms, reconstruction."""

import numpy as np
import pytest

from conftest import random_spinor, ray_angle_sine
from spinorspace import clifford as cl
from spinorspace import fierz
from spinorspace.bilinears import BilinearSet, bilinear_covariants, euclidean_bilinears
from spinorspace.conventions import GENERALIZED_S_FACTOR, S_SCALE
from spinorspace.lounesto import LounestoClass, generate
from spinorspace.spinor_forms import ClassicalSpinor


def bset(sigma=0.0, omega=0.0, J=None, K=None, S=None):
    return BilinearSet(
        sigma, omega,
        np.zeros(4) if J is None else np.array(J, dtype=float),
        np.zeros(4) if K is None else np.array(K, dtype=float),
        np.zeros(6) if S is None else np.array(S, dtype=float),
    )


# -- scalar and tensor identity residuals ---------------------------------------


def test_fpk_residuals_random_spinors(rng):
    for _ in range(200):
        psi = random_spinor(rng)
        res = fierz.fpk_residuals(bilinear_covariants(psi))
        assert res.max_abs() < 1e-10 * psi.norm() ** 4


def test_fpk_handcrafted_consistent_point():
    res = fierz.fpk_residuals(bset(sigma=1.0, J=[1, 0, 0, 0], K=[0, 1, 0, 0]))
    assert res.r1 == 0.0 and res.r2 == 0.0 and res.r3 == 0.0


def test_fpk_timelike_K_with_vanishing_J_is_anomalous():
    res = fierz.fpk_residuals(bset(K=[1, 0, 0, 0]))
    assert np.isclose(res.r2, 1.0)


def test_fpk_requires_time_minus():
    b = BilinearSet(1.0, 0.0, np.zeros(4), np.zeros(4), np.zeros(6),
                    cl.Signature.EUCLIDEAN)
    with pytest.raises(ValueError):
        fierz.fpk_residuals(b)


# -- the aggregate ----------------------------------------------------------------


def test_aggregate_zero():
    assert fierz.aggregate(bset()).max_abs() == 0.0


def test_aggregate_scalar_part_pinned():
    b = bilinear_covariants(ClassicalSpinor([1, 0, 1, 0], cl.WEYL))
    z = fierz.aggregate(b)
    assert np.isclose(z.grade(0).scalar_part.real, 2.0)


def test_aggregate_slot_bookkeeping(rng):
    """Grade slots carry exactly sigma, raised J, i raised S, the dual of K,
    and omega."""
    b = bset(
        sigma=rng.standard_normal(), omega=rng.standard_normal(),
        J=rng.standard_normal(4), K=rng.standard_normal(4),
        S=rng.standard_normal(6),
    )
    z = fierz.aggregate(b)
    c = z.coeffs
    assert np.isclose(c[0].real, b.sigma) and c[0].imag == 0.0
    assert np.allclose(c[1:5].real, [b.J[0], -b.J[1], -b.J[2], -b.J[3]])
    assert np.allclose(c[1:5].imag, 0.0)
    assert np.allclose(c[5:11].real, 0.0)
    assert np.allclose(c[5:11].imag, [-b.S[0], -b.S[1], -b.S[2], b.S[3], b.S[4], b.S[5]])
    assert np.isclose(c[15].real, b.omega)


def test_aggregate_is_rank_one_image(rng):
    for _ in range(50):
        psi = random_spinor(rng)
        b = bilinear_covariants(psi)
        z = fierz.aggregate(b)
        outer = 4.0 * np.outer(
            psi.components, psi.components.conj() @ psi.rep.gammas[0]
        )
        assert np.max(np.abs(cl.rep_matrix(z, psi.rep) - outer)) < 1e-10 * psi.norm() ** 2


# -- calibration pinning -----------------------------------------------------------


def test_s_scale_is_the_unique_calibration(rng):
    """Re-derive the frozen tensor normalization: only the frozen value makes
    the wedge identity hold."""
    psis = [random_spinor(rng) for _ in range(10)]
    for candidate in (1.0, -1.0, 0.5, -0.5):
        worst = 0.0
        for psi in psis:
            b = bilinear_covariants(psi)
            b = BilinearSet(b.sigma, b.omega, b.J, b.K, b.S * (candidate / S_SCALE))
            worst = max(worst, fierz.fpk_residuals(b).r4 / psi.norm() ** 4)
        if candidate == S_SCALE:
            assert worst < 1e-12
        else:
            assert worst > 1e-3


def test_generalized_s_factor_is_the_unique_calibration(rng):
    psi = random_spinor(rng)
    b = bilinear_covariants(psi)
    z = fierz.aggregate(b)
    res = fierz.generalized_fpk_residuals(z, b)
    assert np.max(res) < 1e-10 * z.norm() ** 2
    assert GENERALIZED_S_FACTOR * S_SCALE == -1.0


# -- boomerang and nilpotency --------------------------------------------------------


def test_boomerang_regular(rng):
    for _ in range(100):
        psi = random_spinor(rng)
        b = bilinear_covariants(psi)
        assert fierz.is_boomerang(fierz.aggregate(b), b.sigma)


def test_boomerang_singular_nilpotent(rng):
    for psi in generate(LounestoClass.C5, seed=11, count=20):
        b = bilinear_covariants(psi)
        z = fierz.aggregate(b)
        assert abs(b.sigma) < 1e-10 * psi.norm() ** 2
        assert fierz.is_boomerang(z, 0.0)
        assert (z * z).max_abs() < 1e-9 * z.norm() ** 2


def test_boomerang_rejects_fabricated_point():
    z = fierz.aggregate(bset(sigma=1.0))
    assert not fierz.is_boomerang(z, 1.0)


def test_boomerang_euclidean(rng):
    for _ in range(100):
        b = euclidean_bilinears(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        z = fierz.aggregate(b)
        assert z.signature is cl.Signature.EUCLIDEAN
        assert fierz.boomerang_residual(z, b.sigma) < 1e-12


# -- generalized identity family -------------------------------------------------------


def test_generalized_identities_regular_and_singular(rng):
    spinors = [random_spinor(rng) for _ in range(30)]
    spinors += generate(LounestoClass.C5, seed=2, count=10)
    spinors += generate(LounestoClass.C4, seed=2, count=10)
    spinors += generate(LounestoClass.C6, seed=2, count=10)
    for psi in spinors:
        b = bilinear_covariants(psi)
        z = fierz.aggregate(b)
        res = fierz.generalized_fpk_residuals(z, b)
        assert np.max(res) < 1e-9 * z.norm() ** 2


def test_generalized_identities_zero_aggregate():
    b = bset()
    z = fierz.aggregate(b)
    assert np.max(fierz.generalized_fpk_residuals(z, b)) == 0.0


def test_generalized_imply_scalar_identities(rng):
    for _ in range(20):
        psi = random_spinor(rng)
        b = bilinear_covariants(psi)
        z = fierz.aggregate(b)
        if np.max(fierz.generalized_fpk_residuals(z, b)) < 1e-9 * z.norm() ** 2:
            assert fierz.fpk_residuals(b).max_abs() < 1e-9 * psi.norm() ** 4


# -- singular aggregate form ------------------------------------------------------------


@pytest.mark.parametrize("J,s,h", [
    ([1, 0, 0, 1], [0, 1, 0, 0], 0.0),
    ([1, 0, 0, 1], [0, 0, 1, 0], 1.0),
    ([2, 0, 2, 0], [0, 1, 0, 0], -0.5),
])
def test_singular_aggregate_nilpotent(J, s, h):
    z = fierz.build_singular_aggregate(fierz.SingularAggregateParams(J, s, h))
    assert (z * z).max_abs() < 1e-12 * z.norm() ** 2


def test_singular_aggregate_rejects_bad_params():
    with pytest.raises(ValueError, match="lightlike"):
        fierz.build_singular_aggregate(
            fierz.SingularAggregateParams([1, 0, 0, 0], [0, 1, 0, 0], 0.0))
    with pytest.raises(ValueError, match="orthogonal"):
        fierz.build_singular_aggregate(
            fierz.SingularAggregateParams([1, 0, 0, 1], [0, 0, 0, 1], 0.0))
    with pytest.raises(ValueError, match="space-like"):
        fierz.build_singular_aggregate(
            fierz.SingularAggregateParams([1, 0, 0, 1], [2, 0, 0, 2], 0.0))


# -- reconstruction -----------------------------------------------------------------------


def test_reconstruction_proportional(rng):
    for _ in range(50):
        psi = random_spinor(rng)
        z = fierz.aggregate(bilinear_covariants(psi))
        xi = fierz.default_probe_spinor(z, psi.rep)
        rec = fierz.reconstruct(z, xi)
        assert ray_angle_sine(psi.components, rec.components) < 1e-8
        assert np.isclose(np.linalg.norm(rec.components), psi.norm(), rtol=1e-9)


def test_reconstruction_exact_with_reference(rng):
    for _ in range(50):
        psi = random_spinor(rng)
        z = fierz.aggregate(bilinear_covariants(psi))
        xi = fierz.default_probe_spinor(z, psi.rep)
        rec = fierz.reconstruct(z, xi, psi_ref=psi)
        assert np.max(np.abs(rec.components - psi.components)) < 1e-9 * psi.norm()


def test_reconstruction_degenerate_probe_rejected(rng):
    psi = random_spinor(rng)
    z = fierz.aggregate(bilinear_covariants(psi))
    # any xi orthogonal to psibar kills the kernel
    psibar = psi.components.conj() @ psi.rep.gammas[0]
    basis = np.linalg.svd(psibar.reshape(1, 4))[2].conj()
    xi_perp = ClassicalSpinor(basis[1], psi.rep)
    assert abs(psibar @ xi_perp.components) < 1e-12
    with pytest.raises(ValueError, match="different test spinor"):
        fierz.reconstruct(z, xi_perp)


def test_reconstruction_random_probes(rng):
    for _ in range(20):
        psi = random_spinor(rng)
        z = fierz.aggregate(bilinear_covariants(psi))
        count = 0
        while count < 5:
            xi = random_spinor(rng)
            try:
                rec = fierz.reconstruct(z, xi)
            except ValueError:
                continue
            count += 1
            assert ray_angle_sine(psi.components, rec.components) < 1e-8
