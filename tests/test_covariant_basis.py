"""The covariant basis Gamma_A against the hand-assembled constructions it
replaced: the forms multiplied out from generator matrices, the five-term
aggregate sum and the per-element quarter-sandwich probe list.  Each
reference is kept here verbatim and must agree exactly."""

import numpy as np
import pytest

from spinorspace import bilinears as bl
from spinorspace import clifford as cl
from spinorspace import conventions, fierz
from spinorspace.bilinears import ORIENTATION, BilinearSet
from spinorspace.spinor_forms import BIVECTOR_ORDER, ClassicalSpinor

SIGNATURES = (cl.Signature.MINKOWSKI, cl.Signature.EUCLIDEAN)


def reference_forms(signature, rep):
    """The forms with vol, adj g_mu and the commutators multiplied by hand."""
    if signature is cl.Signature.MINKOWSKI:
        g, adj = rep.gammas, rep.gammas[0]
    else:
        g, adj = bl.EUCLIDEAN_GENERATORS, np.eye(4, dtype=np.complex128)
    vol = adj @ g[0] @ g[1] @ g[2] @ g[3]
    return np.stack(
        [adj, -vol]
        + [adj @ g[mu] for mu in range(4)]
        + [ORIENTATION[signature] * 1j * (vol @ g[mu]) for mu in range(4)]
        + [-1j * (adj @ (g[mu] @ g[nu] - g[nu] @ g[mu])) for mu, nu in BIVECTOR_ORDER]
    )


def reference_aggregate(b):
    """sigma + J + iS + iK e0123 + o omega e0123 as a sum of five multivectors."""
    sig = b.signature
    e5 = cl.pseudoscalar(sig)
    return (
        cl.scalar(b.sigma, sig)
        + fierz.vector_multivector(b.J, sig)
        + 1j * fierz.bivector_multivector(b.S, sig)
        + 1j * (fierz.vector_multivector(b.K, sig) * e5)
        + (ORIENTATION[sig] * b.omega) * e5
    )


def reference_generalized(z, b):
    """The quarter-sandwich residuals with one probe element per line, in
    the order sigma, J, S, K, omega, in the signature of z."""
    e5 = cl.pseudoscalar(z.signature)
    g = [cl.basis_vector(mu, z.signature) for mu in range(4)]
    probes = [cl.scalar(1.0, z.signature), *g]
    probes += [1j * (g[mu] * g[nu] - g[nu] * g[mu]) for mu, nu in BIVECTOR_ORDER]
    probes += [1j * (e5 * v) for v in g]
    probes.append(-1 * e5)
    sandwich = 0.25 * (cl.left_mul_matrix(z) @ cl.right_mul_matrix(z))
    expected = np.concatenate([
        np.asarray(b.sigma)[..., None], b.J, conventions.GENERALIZED_S_FACTOR * b.S, b.K,
        np.asarray(b.omega)[..., None],
    ], axis=-1)
    resid = np.abs(np.stack([p.coeffs for p in probes]) @ np.swapaxes(sandwich, -1, -2)
                   - expected[..., :, None] * z.coeffs[..., None, :])
    return np.stack([np.max(line, axis=(-2, -1))
                     for line in np.split(resid, [1, 5, 11, 15], axis=-2)], axis=-1)


def covariant_batch(rng, signature, n):
    comps = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    comps[: n // 10, :2] = 0.0  # chiral rows, where many covariants vanish exactly
    if signature is cl.Signature.MINKOWSKI:
        return bl.bilinear_covariants(ClassicalSpinor(comps, cl.WEYL))
    return bl.euclidean_bilinears(comps)


def test_basis_is_read_only_and_holds_unit_rows():
    for sig in SIGNATURES:
        basis = bl._covariant_basis(sig)
        assert basis.shape == (16, 16) and not basis.flags.writeable
        # every element is one blade times 1, i, or 2i for the commutators
        assert np.array_equal(np.count_nonzero(basis, axis=1), np.ones(16))
        assert np.array_equal(np.abs(basis).max(axis=1), [1.0] * 10 + [2.0] * 6)


@pytest.mark.parametrize("signature, rep", [
    (cl.Signature.MINKOWSKI, cl.WEYL), (cl.Signature.MINKOWSKI, cl.DIRAC), (cl.Signature.EUCLIDEAN, None),
])
def test_forms_equal_hand_assembled(signature, rep):
    assert np.array_equal(bl._forms(signature, rep), reference_forms(signature, rep))


@pytest.mark.parametrize("signature", SIGNATURES)
def test_aggregate_equals_five_term_sum(rng, signature):
    b = covariant_batch(rng, signature, 1000)
    assert np.array_equal(fierz.aggregate(b).coeffs, reference_aggregate(b).coeffs)
    # arbitrary covariant points, not only those of a spinor
    b = BilinearSet.from_stack(rng.standard_normal((1000, 16)), signature)
    assert np.array_equal(fierz.aggregate(b).coeffs, reference_aggregate(b).coeffs)
    single = BilinearSet.from_stack(b.stack()[7], signature)
    assert np.array_equal(fierz.aggregate(single).coeffs, reference_aggregate(single).coeffs)


def test_generalized_residuals_equal_per_probe_reference(rng):
    b = covariant_batch(rng, cl.Signature.MINKOWSKI, 1000)
    z = fierz.aggregate(b)
    assert np.array_equal(fierz.generalized_fpk_residuals(z, b), reference_generalized(z, b))
    points = BilinearSet.from_stack(rng.standard_normal((200, 16)))
    zp = fierz.aggregate(points)
    assert np.array_equal(fierz.generalized_fpk_residuals(zp, points), reference_generalized(zp, points))
    for row in b.stack()[:20]:
        single = BilinearSet.from_stack(row)
        zs = fierz.aggregate(single)
        got = fierz.generalized_fpk_residuals(zs, single)
        assert got.shape == (5,)
        assert np.array_equal(got, reference_generalized(zs, single))


def reference_basis(signature):
    """Gamma_A as engine products of multivectors, signs of zero included."""
    e, e5 = [cl.basis_vector(mu, signature) for mu in range(4)], cl.pseudoscalar(signature)
    return np.stack([g.coeffs for g in [cl.scalar(1.0, signature), -e5, *e, *(1j * (e5 * v) for v in e)]
                     + [1j * (e[mu] * e[nu] - e[nu] * e[mu]) for mu, nu in BIVECTOR_ORDER]])


def reference_blade_matrices(rep):
    """Each blade image as the product of its generator images in canonical order."""
    mats = []
    for blade in cl.BLADES:
        m = np.eye(4, dtype=np.complex128)
        for mu in blade:
            m = m @ rep.gammas[mu]
        mats.append(m)
    return np.stack(mats)


@pytest.mark.parametrize("signature", SIGNATURES)
def test_basis_read_off_product_table_equals_engine_products(signature):
    # byte equality: the signs of the zeros reach the aggregate coefficients
    assert bl._covariant_basis(signature).tobytes() == reference_basis(signature).tobytes()
    blades, coeffs = bl._covariant_blades(signature)
    assert np.array_equal(bl._covariant_basis(signature)[np.arange(16), blades], coeffs)


@pytest.mark.parametrize("rep", [cl.WEYL, cl.DIRAC, bl._EUCLIDEAN_REP])
def test_blade_matrices_equal_ordered_products(rep):
    assert cl._blade_matrices(rep).tobytes() == reference_blade_matrices(rep).tobytes()


@pytest.mark.parametrize("signature", SIGNATURES)
def test_probe_gather_gives_each_gamma_times_z(rng, signature):
    source, weight, size = fierz._probe_gather(signature)
    basis = bl._covariant_basis(signature)
    for _ in range(5):
        z = cl.Multivector(signature, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        products = np.stack([(cl.Multivector(signature, g) * z).coeffs for g in basis])
        assert np.array_equal(size * (weight * z.coeffs[source]), products)


@pytest.mark.parametrize("signature", SIGNATURES)
@pytest.mark.parametrize("scale", [1e-150, 1e-77, 1.0, 1e150])
def test_generalized_gather_equals_multivector_route_at_every_scale(rng, signature, scale):
    """1e-77 puts Z Z among the subnormals, where 1/4 and |c_A| must follow
    the product exactly as the sandwich matrix applies them; at 1e150 Z Z
    overflows and both routes give the same non-finite rows."""
    comps = scale * (rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4)))
    comps[:20, :2] = 0.0
    if signature is cl.Signature.MINKOWSKI:
        b = bl.bilinear_covariants(ClassicalSpinor(comps, cl.WEYL))
    else:
        b = bl.euclidean_bilinears(comps)
    z = fierz.aggregate(b)
    with np.errstate(all="ignore"):
        got = fierz.generalized_fpk_residuals(z, b)
        want = reference_generalized(z, b)
        singles = [fierz.generalized_fpk_residuals(fierz.aggregate(row), row)
                   for row in (BilinearSet.from_stack(x, signature) for x in b.stack()[::20])]
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all() == (scale < 1e100)
    assert np.array_equal(np.array(singles), got[::20], equal_nan=True)
