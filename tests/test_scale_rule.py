"""The FPK pass rule at every scale.

A covariant set passes an identity when |r_k| <= tol * component_norm^2.
Where that arithmetic stays normal, fpk_membership, classify_bilinears and
the verify --mode fpk columns decide exactly as the rule on the set itself;
outside that band they decide as the rule does on the set scaled back to
unit size, so a set classifies and verifies alike at every scale.  fierz's
public functions take their inputs to the ray through Record._on_ray, so
inputs scaled by a power of two give the unit-scale result scaled exactly.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinorspace import cli, fierz, lounesto, topology
from spinorspace.bilinears import BilinearSet, bilinear_covariants
from spinorspace.clifford import DIRAC, WEYL, Multivector
from spinorspace.spinor_forms import ClassicalSpinor

TOLS = (1e-14, 1e-10, 1e-6)
CLASS1 = [1, 2j, 0.5, 1 + 1j]

# a part is 0 or of magnitude at least 1e-3, so that with scales down to
# 1e-70 no product of covariants reaches the subnormal band
PARTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@st.composite
def covariant_batches(draw):
    """Covariants of 1 to 4 spinors with |psi| from about 1e-70 to 1e70,
    each set moved off the identities by a relative 10^-d."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        parts = np.array(draw(st.lists(PARTS, min_size=8, max_size=8)))
        if not parts.any():
            parts[0] = 1.0
        psi = ClassicalSpinor(parts.view(np.complex128) * 10.0 ** draw(st.floats(-70, 70)), WEYL)
        v = bilinear_covariants(psi).stack()
        nudge = np.array(draw(st.lists(PARTS, min_size=16, max_size=16)))
        rows.append(v + np.abs(v).max() * 10.0 ** -draw(st.integers(5, 17)) * nudge)
    return BilinearSet.from_stack(np.array(rows))


@given(covariant_batches())
# K and S at the threshold of 1e-10: C4 against component_norm / 2, C6 against component_norm
@example(BilinearSet.from_stack([[0, 0, 1, 0, 0, -1, 1, 0, 0, -1, 0, 0, 0, 0, 1e-10, 1e-10]]))
def test_fpk_decisions_follow_the_rule_on_the_set(b):
    """Bit for bit the rule |r| <= tol * component_norm^2 on the set itself,
    with the zero pattern against tol * component_norm / 2, classify_bilinears'
    threshold (|psi|^2 for a spinor's covariants)."""
    scale = b.component_norm()
    res = fierz.fpk_residuals(b).stack()
    for tol in TOLS:
        within = np.abs(res) <= tol * scale[:, None] ** 2
        pattern, _, _ = lounesto._pattern(b.stack(), scale / 2, tol)
        expected = np.where(within.all(axis=-1), pattern, lounesto.LounestoClass.ANOMALOUS)
        assert topology.fpk_membership(b, tol).tolist() == within.all(axis=-1).tolist()
        assert lounesto.classify_bilinears(b, tol).tolist() == expected.tolist()
        columns = cli._verify_rows(*b._on_ray(), "fpk", tol)
        for k in range(4):
            assert columns[f"r{k + 1}"].tobytes() == res[:, k].tobytes()
            assert columns[f"pass_per_identity.r{k + 1}"].tolist() == within[:, k].tolist()
        assert columns["pass"].tolist() == within.all(axis=-1).tolist()


@pytest.mark.parametrize("s", [1e-200, 1e-160, 1e154, 1e200, 1e300])
def test_class_one_set_holds_at_extreme_scales(s):
    """The class-1 covariants of one spinor, scaled far past where their
    squares fit in float64, still classify as C1 and pass the identities,
    with no warning; one batch decides as its single sets."""
    v = bilinear_covariants(ClassicalSpinor(CLASS1, WEYL)).stack() * s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lounesto.classify_bilinears(BilinearSet.from_stack(v)) is lounesto.LounestoClass.C1
        assert topology.fpk_membership(BilinearSet.from_stack(v)) is True
        batch = BilinearSet.from_stack([v, v])
        assert lounesto.classify_bilinears(batch).tolist() == [lounesto.LounestoClass.C1] * 2
        assert topology.fpk_membership(batch).tolist() == [True, True]


def tiny_spinor_doc():
    components = np.array(CLASS1) * 1e-80
    return {"version": 1, "entries": [{"id": "tiny", "rep": "weyl",
                                       "components": [[z.real, z.imag] for z in components]}]}


def tiny_covariant_doc():
    v = bilinear_covariants(ClassicalSpinor(CLASS1, WEYL)).stack() * 1e-160
    return {"version": 1, "entries": [{"id": "tiny", "sigma": v[0], "omega": v[1], "J": v[2:6].tolist(),
                                       "K": v[6:10].tolist(), "S": v[10:].tolist()}]}


@pytest.mark.parametrize("doc", [tiny_spinor_doc, tiny_covariant_doc], ids=["spinor-1e-80", "covariants-1e-160"])
def test_verify_fpk_passes_tiny_class_one_input(tmp_path, capsys, doc):
    """Residuals and tol * norm^2 that are subnormal or zero at the input's
    scale: the flags are decided on the ray and pass, as classify's class 1."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc()))
    code = cli.main(["verify", str(path), "--mode", "fpk"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    report = json.loads(out.out)
    assert report["all_pass"] is True
    row = report["results"][0]
    assert row["pass"] is True and all(row["pass_per_identity"].values())


def ldexp_spinor(psi: ClassicalSpinor, k: int) -> ClassicalSpinor:
    return ClassicalSpinor(np.ldexp(psi.components.view(np.float64), k).view(np.complex128), psi.rep)


@pytest.mark.parametrize("s, k", [(1.0, -505), (1.0, -266), (1.0, 266), (1.0, 505), (1e-80, 266), (1e-80, 505)])
def test_boomerang_and_reconstruct_follow_the_rule(s, k):
    """The covariants of s psi times 4^k give the boomerang residual of s psi
    and its reconstruction times 2^k, bit for bit: Z is taken to its ray
    instead of being measured against a 1e-300 floor.  At 4^505 Z Z
    overflows, at 4^-505 the probe kernel falls under the floor, and at
    s = 1e-80 Z Z is subnormal, so the floor made the residual 1e-23."""
    psi = ClassicalSpinor(s * np.array(CLASS1), WEYL)
    b = bilinear_covariants(psi)
    scaled = BilinearSet.from_stack(np.ldexp(b.stack(), 2 * k))
    z, zk = fierz.aggregate(b), fierz.aggregate(scaled)
    residual = fierz.boomerang_residual(z, b.sigma)
    assert fierz.boomerang_residual(zk, scaled.sigma) == residual <= 1e-15
    assert fierz.is_boomerang(zk, scaled.sigma)
    probe = fierz.default_probe_spinor(zk, WEYL)
    assert probe == fierz.default_probe_spinor(z, WEYL)
    assert fierz.reconstruct(zk, probe) == ldexp_spinor(fierz.reconstruct(z, probe), k)
    exact = fierz.reconstruct(zk, probe, psi_ref=ldexp_spinor(psi, k))
    assert exact == ldexp_spinor(fierz.reconstruct(z, probe, psi_ref=psi), k)


def test_reconstruct_of_subnormal_covariants_is_not_degenerate():
    """At |psi| about 1e-160 the covariants are subnormal, good to about
    1e-5; on Z's ray the probe kernel is of order 1, so the spinor comes
    back to that accuracy instead of as a degenerate probe."""
    psi = ClassicalSpinor(np.array(CLASS1) * 1e-160, WEYL)
    z = fierz.aggregate(bilinear_covariants(psi))
    recovered = fierz.reconstruct(z, fierz.default_probe_spinor(z, WEYL), psi_ref=psi)
    assert np.abs(recovered.components - psi.components).max() <= 1e-4 * psi.norm()


# -- fierz's public functions on the ray ------------------------------------------------


def unit_spinors(n: int, rep, seed: int = 35) -> ClassicalSpinor:
    """n seeded spinors of unit norm in rep."""
    rng = np.random.default_rng(seed)
    comps = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    return ClassicalSpinor(comps / np.linalg.norm(comps, axis=-1, keepdims=True), rep)


def ldexp_multivector(z: Multivector, k: int) -> Multivector:
    return Multivector(z.signature, np.ldexp(z.coeffs.view(np.float64), k).view(np.complex128))


SCALES = given(st.integers(-500, 500))


@pytest.mark.parametrize("rep", [WEYL, DIRAC], ids=str)
@SCALES
def test_boomerang_probe_and_reconstruct_are_alike_at_every_scale(rep, k):
    """For unit spinors, bit for bit: Z and sigma times 2^k give the boomerang
    residual and the probe of Z and sigma, and Z times 4^h, h = k div 2,
    gives the spinor times 2^h whatever the scales of the probe and the
    reference."""
    psi = unit_spinors(20, rep)
    b = bilinear_covariants(psi)
    z = fierz.aggregate(b)
    zk = ldexp_multivector(z, k)
    scaled = fierz.boomerang_residual(zk, np.ldexp(b.sigma, k))
    assert scaled.tobytes() == fierz.boomerang_residual(z, b.sigma).tobytes()
    xi = fierz.default_probe_spinor(z, rep)
    assert fierz.default_probe_spinor(zk, rep) == xi
    zh, h = ldexp_multivector(z, 2 * (k // 2)), k // 2
    assert fierz.reconstruct(zh, ldexp_spinor(xi, k)) == ldexp_spinor(fierz.reconstruct(z, xi), h)
    exact = fierz.reconstruct(zh, ldexp_spinor(xi, -k), psi_ref=ldexp_spinor(psi, k))
    assert exact == ldexp_spinor(fierz.reconstruct(z, xi, psi_ref=psi), h)


def test_boomerang_residual_is_alike_from_two_to_the_minus_1000_to_the_1000():
    """Z and sigma of the class-1 spinor, on the identity and off it by a
    nudge of sigma, times 2^k give the unit-scale residual bit for bit over
    the whole normal range, with no warning: the residual scales 4 sigma by
    2^(2 - e) in one ldexp."""
    b = bilinear_covariants(ClassicalSpinor(CLASS1, WEYL))
    z = fierz.aggregate(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma in (b.sigma, b.sigma * (1 + 2.0 ** -20)):
            unit = fierz.boomerang_residual(z, sigma).hex()
            for k in range(-1000, 1001):
                assert fierz.boomerang_residual(ldexp_multivector(z, k), np.ldexp(sigma, k)).hex() == unit, k


# (J, s, h, the message of the unit-scale call or None where it builds)
SINGULAR_CASES = [
    ([1, 0, 0, 1], [0, 1, 0, 0], 0.0, None),
    ([2, 0, 2, 0], [0, 1, 0, 0], -0.5, None),
    ([5, 3, 4, 0], [0, 4, -3, 0], 1.5, None),
    ([1, 0, 0, 0], [0, 1, 0, 0], 0.0, "J must be lightlike"),
    ([1, 0, 0, 1 + 1e-8], [0, 1, 0, 0], 0.0, "J must be lightlike"),
    ([1, 0, 0, 1], [2, 0, 0, 2], 0.0, "s must be space-like"),
    ([1, 0, 0, 1], [0, 0, 0, 1], 0.0, "s must be orthogonal"),
    ([5, 3, 4, 0], [1e-7, 4, -3, 0], 0.0, "s must be orthogonal"),
]


@SCALES
def test_singular_aggregate_is_alike_at_every_scale(k):
    """J and s times 2^k and 2^-k are judged as J and s are, and J times
    2^k gives the aggregate times 2^k, bit for bit."""
    for J, s, h, message in SINGULAR_CASES:
        J, s = np.array(J, dtype=float), np.array(s, dtype=float)
        if message is not None:
            for jk, sk in ((k, k), (k, -k)):
                with pytest.raises(ValueError, match=message):
                    fierz.build_singular_aggregate(fierz.SingularAggregateParams(np.ldexp(J, jk), np.ldexp(s, sk), h))
            continue
        z = fierz.build_singular_aggregate(fierz.SingularAggregateParams(J, s, h))
        zk = fierz.build_singular_aggregate(fierz.SingularAggregateParams(np.ldexp(J, k), s, h))
        assert zk == ldexp_multivector(z, k)
        fierz.build_singular_aggregate(fierz.SingularAggregateParams(J, np.ldexp(s, k), h))


@pytest.mark.parametrize("rep", [WEYL, DIRAC], ids=str)
def test_probe_near_the_top_of_float64_is_the_unit_scale_one(rep):
    """Unit spinors times 1.2e154, whose aggregates reach 1.4e308: the
    probe read on Z's ray is the unit-scale one, with no warning, where Z's
    matrix read at its own scale overflows to inf and its kernels to nan,
    and the spinor comes back."""
    psi = unit_spinors(200, rep)
    big = ClassicalSpinor(psi.components * 1.2e154, rep)
    z, zbig = (fierz.aggregate(bilinear_covariants(p)) for p in (psi, big))
    probe = fierz.default_probe_spinor(zbig, rep)
    assert probe == fierz.default_probe_spinor(z, rep)
    recovered = fierz.reconstruct(zbig, probe, psi_ref=big)
    assert (np.abs(recovered.components - big.components).max(axis=-1) <= 1e-14 * big.norm()).all()
