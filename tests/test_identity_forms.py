"""The quadratic-form stack of the identity residuals against the multivector
route it replaced: J wedge K as a grade-2 geometric product and the volume
term as (omega + sigma e0123) times the S bivector.  That route is kept here
verbatim as the reference."""

import numpy as np
import pytest

from spinorspace import bilinears as bl
from spinorspace import clifford as cl
from spinorspace import fierz
from spinorspace.bilinears import ORIENTATION, BilinearSet
from spinorspace.fierz import bivector_multivector, vector_multivector
from spinorspace.spinor_forms import ClassicalSpinor

SIGNATURES = (cl.Signature.MINKOWSKI, cl.Signature.EUCLIDEAN)


def reference_identities(b):
    """r1, r2, r3 and the multivector J wedge K + o (omega + sigma e0123) S."""
    sig = b.signature
    o = ORIENTATION[sig]
    eta = np.array(sig.metric)
    j2 = (eta * b.J * b.J).sum(axis=-1)
    k2 = (eta * b.K * b.K).sum(axis=-1)
    jk = (eta * b.J * b.K).sum(axis=-1)
    wedge = cl.grade_projection(vector_multivector(b.J, sig) * vector_multivector(b.K, sig), 2)
    volume = cl.scalar(o * b.omega, sig) + (o * b.sigma) * cl.pseudoscalar(sig)
    resid = wedge + volume * bivector_multivector(b.S, sig)
    return j2 - b.sigma ** 2 - o * b.omega ** 2, j2 + o * k2, jk, resid


def reference_residuals(b):
    """(..., 4) r1, r2, r3 and the coefficient max-norm r4."""
    r1, r2, r3, resid = reference_identities(b)
    return np.stack([r1, r2, r3, resid.max_abs()], axis=-1)


def reference_values(b):
    """(..., 9) r1, r2, r3 and the six signed bivector coefficients."""
    r1, r2, r3, resid = reference_identities(b)
    assert not np.any(resid.coeffs.imag) and not np.any(np.delete(resid.coeffs, np.s_[5:11], axis=-1))
    return np.concatenate([np.stack([r1, r2, r3], axis=-1), resid.coeffs[..., 5:11].real], axis=-1)


def residuals(b):
    if b.signature is cl.Signature.EUCLIDEAN:
        return fierz.euclidean_fierz_residuals(b)
    res = fierz.fpk_residuals(b)
    return np.stack([res.r1, res.r2, res.r3, res.r4], axis=-1)


def points(rng, signature, kind, n=500):
    """A batch of covariant stacks: physical (from spinors), random, or
    zero-heavy (most entries 0, the rest small integers and halves)."""
    if kind == "physical":
        comps = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        if signature is cl.Signature.EUCLIDEAN:
            return bl.euclidean_bilinears(comps).stack()
        half = n // 2
        return np.concatenate([bl.bilinear_covariants(ClassicalSpinor(comps[:half], cl.WEYL)).stack(),
                               bl.bilinear_covariants(ClassicalSpinor(comps[half:], cl.DIRAC)).stack()])
    if kind == "random":
        return rng.standard_normal((n, 16))
    return rng.choice([0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -0.5], size=(n, 16))


@pytest.mark.parametrize("signature", SIGNATURES)
@pytest.mark.parametrize("kind", ["physical", "random", "zero-heavy"])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_residuals_match_multivector_route(rng, signature, kind, scale):
    b = BilinearSet.from_stack(scale * points(rng, signature, kind), signature)
    got, want = residuals(b), reference_residuals(b)
    norm2 = b.component_norm() ** 2
    assert np.all(np.abs(got - want) <= 1e-15 * norm2[:, None])
    for tol in (1e-8, 1e-10, 1e-12):
        bound = tol * norm2[:, None]
        assert np.array_equal(np.abs(got) <= bound, np.abs(want) <= bound)


@pytest.mark.parametrize("signature", SIGNATURES)
def test_single_sets_match_multivector_route(rng, signature):
    for x in points(rng, signature, "physical", 20):
        b = BilinearSet.from_stack(x, signature)
        assert np.all(np.abs(residuals(b) - reference_residuals(b)) <= 1e-15 * b.component_norm() ** 2)


@pytest.mark.parametrize("signature", SIGNATURES)
def test_forms_are_polarisations_of_the_reference(signature):
    """Q[k, i, i] = ref_k(e_i), Q[k, i, j] = ref_k(e_i + e_j) - ref_k(e_i) -
    ref_k(e_j) for i < j, zero below the diagonal: the forms are the
    reference's values on the unit stacks, exactly."""
    unit = np.eye(16)
    single = reference_values(BilinearSet.from_stack(unit, signature))
    pairs = reference_values(BilinearSet.from_stack(unit[:, None] + unit[None], signature))
    polar = pairs - single[:, None] - single[None]
    expected = np.where(np.triu(np.ones((16, 16)), 1)[..., None] == 1, polar, 0.0)
    expected[np.arange(16), np.arange(16)] = single
    forms = fierz._identity_forms(signature)
    assert np.array_equal(forms, np.moveaxis(expected, -1, 0))
    assert set(np.unique(forms)) == {-1.0, 0.0, 1.0}
    assert not forms.flags.writeable
