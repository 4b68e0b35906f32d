"""Covariant computation, both signatures, both routes."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_spinor
from spinorspace import bilinears as bl
from spinorspace import clifford as cl
from spinorspace.spinor_forms import BIVECTOR_ORDER, ClassicalSpinor, Quaternion


def test_dirac_adjoint_examples():
    psi = ClassicalSpinor([1, 0, 0, 0], cl.WEYL)
    assert np.allclose(bl.dirac_adjoint(psi), [0, 0, 1, 0])
    psi = ClassicalSpinor([1, 0, 0, 0], cl.DIRAC)
    assert np.allclose(bl.dirac_adjoint(psi), [1, 0, 0, 0])
    psi = ClassicalSpinor([0, 0, 0, 0], cl.WEYL)
    assert np.allclose(bl.dirac_adjoint(psi), np.zeros(4))


def test_pinned_weyl_values():
    b = bl.bilinear_covariants(ClassicalSpinor([1, 0, 1, 0], cl.WEYL))
    assert np.isclose(b.sigma, 2.0)
    assert np.isclose(b.omega, 0.0)
    assert np.isclose(b.J[0], 2.0)


def test_chiral_spinor_pattern():
    b = bl.bilinear_covariants(ClassicalSpinor([1, 0, 0, 0], cl.WEYL))
    assert abs(b.sigma) < 1e-14 and abs(b.omega) < 1e-14
    assert np.max(np.abs(b.S)) < 1e-14
    assert np.linalg.norm(b.K) > 0.5
    assert np.linalg.norm(b.J) > 0.5


def test_zero_spinor_all_zero():
    b = bl.bilinear_covariants(ClassicalSpinor([0, 0, 0, 0], cl.WEYL))
    assert b.sigma == 0 and b.omega == 0
    assert np.all(b.J == 0) and np.all(b.K == 0) and np.all(b.S == 0)


def test_reality_bound(rng):
    # computed through complex sandwiches, so reality is a consistency check
    for _ in range(200):
        b = bl.bilinear_covariants(random_spinor(rng))
        assert np.all(np.isfinite([b.sigma, b.omega]))


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_rescaling_covariance(re, im):
    c = complex(re, im)
    if abs(c) < 1e-3:
        return
    rng = np.random.default_rng(5)
    psi = random_spinor(rng)
    scaled = ClassicalSpinor(c * psi.components, psi.rep)
    b1 = bl.bilinear_covariants(psi)
    b2 = bl.bilinear_covariants(scaled)
    f = abs(c) ** 2
    assert np.isclose(b2.sigma, f * b1.sigma, atol=1e-9)
    assert np.isclose(b2.omega, f * b1.omega, atol=1e-9)
    assert np.allclose(b2.J, f * b1.J, atol=1e-9)
    assert np.allclose(b2.K, f * b1.K, atol=1e-9)
    assert np.allclose(b2.S, f * b1.S, atol=1e-9)


def test_representation_independence(rng):
    """The same abstract spinor gives identical covariants in both
    representations related by the fixed change of basis."""
    for _ in range(50):
        psi_w = random_spinor(rng, cl.WEYL)
        psi_d = psi_w.to_rep(cl.DIRAC)
        bw = bl.bilinear_covariants(psi_w)
        bd = bl.bilinear_covariants(psi_d)
        assert np.isclose(bw.sigma, bd.sigma, atol=1e-12)
        assert np.isclose(bw.omega, bd.omega, atol=1e-12)
        assert np.allclose(bw.J, bd.J, atol=1e-12)
        assert np.allclose(bw.K, bd.K, atol=1e-12)
        assert np.allclose(bw.S, bd.S, atol=1e-12)


def test_rank_one_expansion_oracle(rng):
    """Independent route: the blade expansion of 4 psi psibar reproduces the
    stored covariants slot by slot."""
    from spinorspace.fierz import aggregate

    for _ in range(20):
        psi = random_spinor(rng, cl.WEYL)
        b = bl.bilinear_covariants(psi)
        z = aggregate(b)
        m = cl.rep_matrix(z, cl.WEYL)
        outer = 4.0 * np.outer(psi.components, bl.dirac_adjoint(psi))
        assert np.max(np.abs(m - outer)) < 1e-10 * psi.norm() ** 2


# -- Euclidean layer -----------------------------------------------------------


def test_euclidean_generator_relations():
    for mu in range(4):
        for nu in range(4):
            e = bl.EUCLIDEAN_GENERATORS
            acom = e[mu] @ e[nu] + e[nu] @ e[mu]
            want = 2.0 * np.eye(4) if mu == nu else np.zeros((4, 4))
            assert np.allclose(acom, want, atol=1e-15)
    prod = np.linalg.multi_dot(bl.EUCLIDEAN_GENERATORS)
    assert np.allclose(prod, -bl.EUCLIDEAN_VOLUME, atol=1e-15)


def test_euclidean_closed_form_pinned():
    s, o, j = bl.euclidean_components_closed_form([1, 0, 0, 0])
    assert s == 1.0 and o == 0.0
    assert np.allclose(j, [1, 0, 0, 0])
    s, o, j = bl.euclidean_components_closed_form([0, 0, 1, 0])
    assert s == 1.0 and o == 0.0 and j[0] == -1.0


def test_euclidean_bilinears_pinned():
    b = bl.euclidean_bilinears([1, 0, 0, 0])
    assert np.isclose(b.sigma, 1.0) and np.isclose(b.omega, 0.0)
    assert np.allclose(b.J, [1, 0, 0, 0])
    psi = np.array([1, 0, 1, 0]) / np.sqrt(2.0)
    b = bl.euclidean_bilinears(psi)
    assert np.isclose(b.omega, 1.0)
    assert np.isclose(b.J[0], 0.0)


def test_euclidean_matrix_route_matches_closed_form(rng):
    for _ in range(1000):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = bl.euclidean_bilinears(psi)
        s, o, j = bl.euclidean_components_closed_form(psi)
        scale = float(np.vdot(psi, psi).real)
        assert abs(b.sigma - s) < 1e-12 * scale
        assert abs(b.omega - o) < 1e-12 * scale
        assert np.max(np.abs(b.J - j)) < 1e-12 * scale


def test_euclidean_sphere_constraint(rng):
    for _ in range(200):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = psi / np.linalg.norm(psi)
        s, o, j = bl.euclidean_components_closed_form(psi)
        assert abs(float(j @ j) + o ** 2 - 1.0) < 1e-12


def test_euclidean_fierz_identities(rng):
    from spinorspace.fierz import euclidean_fierz_residuals

    for _ in range(100):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        res = euclidean_fierz_residuals(bl.euclidean_bilinears(psi))
        assert np.max(np.abs(res)) < 1e-10 * np.linalg.norm(psi) ** 4


# -- quaternionic route ----------------------------------------------------------


def test_quaternionic_components_pinned():
    s, o, j0, ji = bl.quaternionic_euclidean_components(Quaternion(1), Quaternion())
    assert s == 1.0 and o == 0.0 and j0 == 1.0
    s, o, j0, ji = bl.quaternionic_euclidean_components(Quaternion(), Quaternion(1))
    assert s == 1.0 and o == 0.0 and j0 == -1.0


def test_quaternionic_route_matches_c4_route(rng):
    for _ in range(500):
        q1 = Quaternion(*rng.standard_normal(4))
        q2 = Quaternion(*rng.standard_normal(4))
        s, o, j0, ji = bl.quaternionic_euclidean_components(q1, q2)
        psi = bl.quaternion_pair_to_c4(q1, q2)
        s2, o2, j = bl.euclidean_components_closed_form(psi)
        assert abs(s - s2) < 1e-12 * max(1.0, s)
        assert abs(o - o2) < 1e-12 * max(1.0, s)
        assert abs(j0 - j[0]) < 1e-12 * max(1.0, s)
        assert np.max(np.abs(np.array(ji) - j[1:])) < 1e-12 * max(1.0, s)


def test_bilinear_set_shape_validation():
    with pytest.raises(ValueError, match="6 components"):
        bl.BilinearSet(1.0, 0.0, np.zeros(4), np.zeros(4), np.zeros(5))
    with pytest.raises(ValueError, match="4 components"):
        bl.BilinearSet(1.0, 0.0, np.zeros(3), np.zeros(4), np.zeros(6))
    with pytest.raises(ValueError, match="finite"):
        bl.BilinearSet(np.nan, 0.0, np.zeros(4), np.zeros(4), np.zeros(6))
    with pytest.raises(ValueError, match="finite"):
        bl.BilinearSet(1.0, 0.0, np.zeros(4), [0, np.inf, 0, 0], np.zeros(6))


def test_s_component_order_is_documented_order():
    assert BIVECTOR_ORDER == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("signature", [cl.Signature.MINKOWSKI, cl.Signature.EUCLIDEAN])
def test_bilinear_set_equality(rng, signature):
    if signature is cl.Signature.MINKOWSKI:
        def covariants(c):
            return bl.bilinear_covariants(ClassicalSpinor(c, cl.WEYL))
    else:
        covariants = bl.euclidean_bilinears
    comps = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    assert covariants(comps) == covariants(comps)
    assert covariants(comps[0]) == covariants(comps[0])
    assert covariants(comps[0]) != covariants(comps[1])
    assert covariants(comps[:2]) != covariants(comps[:3])
    assert covariants(comps[:1]) != covariants(comps[0])
    other = next(s for s in cl.Signature if s is not signature)
    assert covariants(comps[0]) != bl.BilinearSet.from_stack(covariants(comps[0]).stack(), other)
    assert covariants(comps[0]) != covariants(comps[0]).stack()


# a set whose norm Python's float pow and numpy's square once rounded apart
NORM_ROUNDING_CASE = [
    -2.2444979729660723e+145, -6.751002323529932e+144, -2.488116714598042e+145, -4.551432696780475e+144,
    2.3989991740916717e+144, -7.43405472474419e+144, 1.382949371155958e+144, -8.125097890687863e+143,
    -7.29455938799421e+144, 1.3785346914747573e+145, 2.1594112472473635e+145, 5.455866624647991e+144,
    9.477944029044944e+144, 1.2555300306998572e+144, -1.595772529164318e+145, 2.5982305578416653e+144,
]


def test_single_component_norm_is_its_batch_row():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((2000, 16)) * 10.0 ** rng.uniform(-150, 150, (2000, 1))
    v = np.vstack([v, NORM_ROUNDING_CASE])
    batch = bl.BilinearSet.from_stack(v).component_norm()
    single = np.array([bl.BilinearSet.from_stack(row).component_norm() for row in v])
    assert isinstance(bl.BilinearSet.from_stack(v[0]).component_norm(), float)
    assert np.array_equal(single.view(np.uint64), batch.view(np.uint64))


def test_component_norm_beyond_float64_is_inf():
    b = bl.BilinearSet.from_stack(np.full(16, 1e200))
    with np.errstate(all="ignore"):
        assert b.component_norm() == np.inf
        assert bl.BilinearSet.from_stack(np.full((1, 16), 1e200)).component_norm().tolist() == [np.inf]


def test_component_norm_is_the_row_norm():
    """component_norm is clifford's one row norm, so a set far beyond float64
    has norm inf with no overflow warning, as every norm() does."""
    assert bl.BilinearSet.component_norm is cl._row_norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bl.BilinearSet.from_stack(np.full(16, 1e200)).component_norm() == np.inf
        assert bl.BilinearSet.from_stack(np.full((2, 16), 1e200)).component_norm().tolist() == [np.inf, np.inf]


@pytest.mark.parametrize("rep", [cl.WEYL, cl.DIRAC], ids=str)
def test_euclidean_bilinears_take_a_classical_spinor(rng, rep):
    comps = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    # the Euclidean forms read the components, not the representation tag
    assert bl.euclidean_bilinears(ClassicalSpinor(comps, rep)) == bl.euclidean_bilinears(comps)
    assert bl.euclidean_bilinears(ClassicalSpinor(comps[0], rep)) == bl.euclidean_bilinears(comps[0])


@pytest.mark.parametrize("psi", [np.array([1, 0, 0, 0], complex), [1, 0, 1, 0], Quaternion(1.0)],
                         ids=["ndarray", "list", "Quaternion"])
def test_bilinear_covariants_take_only_a_classical_spinor(psi):
    with pytest.raises(ValueError, match=f"^expected a ClassicalSpinor, got {type(psi).__name__}$"):
        bl.bilinear_covariants(psi)
