"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured worst case.  Criterion 7 carries one strictly-expected-failing
sub-criterion, documented in the decisions ledger, about self-adjoint
mapping images."""

import json
import time

import numpy as np
import pytest

from conftest import random_spinor, ray_angle_sine
from spinorspace import classmap, cli, fierz, lounesto
from spinorspace import clifford as cl
from spinorspace import spinor_forms as sf
from spinorspace import topology as tp
from spinorspace.bilinears import (
    bilinear_covariants,
    euclidean_bilinears,
    euclidean_components_closed_form,
)
from spinorspace.lounesto import LounestoClass

_T0 = time.perf_counter()

SIX = [LounestoClass.C1, LounestoClass.C2, LounestoClass.C3,
       LounestoClass.C4, LounestoClass.C5, LounestoClass.C6]


def _announce(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS: {detail}")


def test_criterion_01_algebra_soundness():
    start = time.perf_counter()
    for signature in cl.Signature:
        eta = signature.metric
        for mu in range(4):
            for nu in range(4):
                em = cl.basis_vector(mu, signature)
                en = cl.basis_vector(nu, signature)
                want = cl.scalar(2.0 * eta[mu] if mu == nu else 0.0, signature)
                assert (em * en + en * em).isclose(want, 0.0)
    # every blade-pair product agrees with the matrix image
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        a = cl.Multivector(cl.Signature.MINKOWSKI,
                           rng.standard_normal(16) + 1j * rng.standard_normal(16))
        b = cl.Multivector(cl.Signature.MINKOWSKI,
                           rng.standard_normal(16) + 1j * rng.standard_normal(16))
        for rep in (cl.WEYL, cl.DIRAC):
            delta = cl.rep_matrix(a * b, rep) - cl.rep_matrix(a, rep) @ cl.rep_matrix(b, rep)
            worst = max(worst, float(np.max(np.abs(delta))) / (a.norm() * b.norm()))
    assert worst < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, f"generator relations exact, homomorphism error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_fpk_suite():
    start = time.perf_counter()
    worst = 0.0
    per_class = 1000
    for index, target in enumerate(SIX):
        spinors = lounesto.generate(target, seed=1000 + index, count=per_class)
        for psi in spinors:
            res = fierz.fpk_residuals(bilinear_covariants(psi))
            worst = max(worst, res.max_abs() / psi.norm() ** 4)
    assert worst < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(2, f"{per_class} spinors x 6 classes, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_boomerang_and_nilpotency():
    rng = np.random.default_rng(103)
    worst_reg = 0.0
    for _ in range(500):
        psi = random_spinor(rng)
        b = bilinear_covariants(psi)
        z = fierz.aggregate(b)
        resid = (z * z - (4.0 * b.sigma) * z).max_abs()
        worst_reg = max(worst_reg, resid / z.norm() ** 2)
    assert worst_reg < 1e-9
    worst_nil = 0.0
    for psi in lounesto.generate(LounestoClass.C5, seed=103, count=500):
        z = fierz.aggregate(bilinear_covariants(psi))
        worst_nil = max(worst_nil, (z * z).max_abs() / z.norm() ** 2)
    assert worst_nil < 1e-9
    _announce(3, f"idempotency {worst_reg:.2e}, nilpotency {worst_nil:.2e}")


def test_criterion_04_generalized_identities():
    rng = np.random.default_rng(104)
    worst = 0.0
    spinors = [random_spinor(rng) for _ in range(200)]
    for target, seed in ((LounestoClass.C4, 41), (LounestoClass.C5, 42),
                         (LounestoClass.C6, 43)):
        spinors += lounesto.generate(target, seed=seed, count=67)
    for psi in spinors:
        b = bilinear_covariants(psi)
        z = fierz.aggregate(b)
        res = fierz.generalized_fpk_residuals(z, b)
        worst = max(worst, float(np.max(res)) / z.norm() ** 2)
    assert worst < 1e-9
    _announce(4, f"{len(spinors)} aggregates, worst of five residuals {worst:.2e}")


def test_criterion_05_reconstruction():
    rng = np.random.default_rng(105)
    worst_sine = 0.0
    worst_exact = 0.0
    for _ in range(100):
        psi = random_spinor(rng)
        z = fierz.aggregate(bilinear_covariants(psi))
        probes = 0
        while probes < 5:
            xi = random_spinor(rng)
            try:
                rec = fierz.reconstruct(z, xi)
            except ValueError:
                continue
            probes += 1
            worst_sine = max(worst_sine, ray_angle_sine(psi.components, rec.components))
        exact = fierz.reconstruct(z, fierz.default_probe_spinor(z, psi.rep), psi_ref=psi)
        worst_exact = max(
            worst_exact,
            float(np.max(np.abs(exact.components - psi.components))) / psi.norm(),
        )
    assert worst_sine < 1e-8
    assert worst_exact < 1e-9
    _announce(5, f"ray sine {worst_sine:.2e}, referenced recovery {worst_exact:.2e}")


def test_criterion_06_isomorphism_round_trips():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        op = sf.operator_from_coeffs(
            rng.standard_normal(), rng.standard_normal(6), rng.standard_normal()
        )
        psi = sf.classical_from_operator(op)
        xi = sf.algebraic_from_classical(psi)
        psi_back = sf.classical_from_algebraic(xi)
        op_back = sf.operator_from_classical(psi_back)
        mv = sf.operator_to_even_multivector(op_back)
        op_again = sf.operator_from_even_multivector(mv)
        worst = max(
            worst,
            float(np.max(np.abs(psi_back.components - psi.components))),
            float(np.max(np.abs(op_again.q1.as_array() - op.q1.as_array()))),
            float(np.max(np.abs(op_again.q2.as_array() - op.q2.as_array()))),
        )
    assert worst < 1e-12
    worst_prod = 0.0
    for _ in range(100):
        op_a = sf.operator_from_coeffs(
            rng.standard_normal(), rng.standard_normal(6), rng.standard_normal()
        )
        op_b = sf.operator_from_coeffs(
            rng.standard_normal(), rng.standard_normal(6), rng.standard_normal()
        )
        ha = sf.operator_to_quat_matrix(op_a)
        hb = sf.operator_to_quat_matrix(op_b)
        delta = (ha @ hb).to_complex() - ha.to_complex() @ hb.to_complex()
        worst_prod = max(worst_prod, float(np.max(np.abs(delta))))
    assert worst_prod < 1e-10
    _announce(6, f"round trips {worst:.2e}, product agreement {worst_prod:.2e}")


def test_criterion_07_mapping_matrix():
    rng = np.random.default_rng(107)
    worst_det = 0.0
    worst_con = 0.0
    for _ in range(1000):
        m = classmap.build_M(classmap.random_params(rng))
        worst_det = max(worst_det, classmap.no_inverse_witness(m.matrix) / m.frobenius() ** 4)
        r0, r123 = classmap.constraint_residuals(m.matrix)
        worst_con = max(worst_con, max(r0, r123) / m.frobenius() ** 2)
    assert worst_det < 1e-12
    assert worst_con < 1e-12
    worst_scalar = 0.0
    class_four = 0
    total = 100
    for seed in range(total):
        m = classmap.build_M(classmap.random_params(rng))
        phi = lounesto.generate(SIX[seed % 3], seed=seed, count=1)[0]
        mapped = classmap.map_to_class4(m, phi)
        b = bilinear_covariants(mapped.spinor)
        n2 = mapped.spinor.norm() ** 2
        worst_scalar = max(worst_scalar, abs(b.sigma) / n2, abs(b.omega) / n2)
        if lounesto.classify(mapped.spinor).lounesto_class is LounestoClass.C4:
            class_four += 1
    assert worst_scalar < 1e-10
    assert class_four >= 95
    _announce(7, f"det {worst_det:.2e}, constraints {worst_con:.2e}, "
                 f"image scalars {worst_scalar:.2e}, class-4 rate {class_four}/{total}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable sub-criterion: no nonzero spinor can have "
        "sigma = omega = K = S = 0 with J nonzero (rank-one aggregate versus "
        "rank-two lightlike current), so self-adjoint mapping images retain "
        "K and S; analysis in the decisions ledger"
    ),
)
def test_criterion_07b_hermitian_images_lose_K_and_S():
    rng = np.random.default_rng(1077)
    worst = 0.0
    for seed in range(20):
        m = classmap.hermitian_constrain(classmap.random_hermitian_params(rng))
        phi = lounesto.generate(LounestoClass.C1, seed=seed, count=1)[0]
        mapped = classmap.map_to_class4(m, phi)
        b = bilinear_covariants(mapped.spinor)
        n2 = mapped.spinor.norm() ** 2
        worst = max(worst, np.linalg.norm(b.K) / n2, np.linalg.norm(b.S) / n2)
    print(f"measured worst relative |K|, |S| on self-adjoint images: {worst:.3f}")
    assert worst < 1e-10


def test_criterion_08_euclidean_layer():
    rng = np.random.default_rng(108)
    worst_sphere = 0.0
    worst_match = 0.0
    worst_if = 0.0
    for _ in range(1000):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        unit = psi / np.linalg.norm(psi)
        worst_sphere = max(worst_sphere, tp.regular_sphere_check(unit))
        b = euclidean_bilinears(unit)
        s, o, j = euclidean_components_closed_form(unit)
        worst_match = max(
            worst_match,
            abs(b.sigma - s), abs(b.omega - o), float(np.max(np.abs(b.J - j))),
        )
        res = fierz.euclidean_fierz_residuals(b)
        worst_if = max(worst_if, float(np.max(np.abs(res))))
    assert worst_sphere < 1e-10
    assert worst_match < 1e-12
    assert worst_if < 1e-10
    _announce(8, f"sphere {worst_sphere:.2e}, closed-form match {worst_match:.2e}, "
                 f"identity residuals {worst_if:.2e}")


def _circle(radius=1.0, center=(0.0, 0.0), n=64):
    t = np.linspace(0.0, 2.0 * np.pi, n + 1)
    pts = np.stack([center[0] + radius * np.cos(t),
                    center[1] + radius * np.sin(t)], axis=1)
    pts[-1] = pts[0]
    return pts


def test_criterion_09_topology():
    assert tp.winding_number(_circle()) == 1
    assert tp.winding_number(_circle(center=(3.0, 0.0))) == 0
    assert tp.winding_number(_circle()[::-1]) == -1
    rng = np.random.default_rng(109)
    for _ in range(50):
        r1, r2 = rng.uniform(0.5, 2.0, size=2)
        enclose_second = bool(rng.integers(2))
        a = _circle(radius=r1)
        b = _circle(radius=r2) if enclose_second else _circle(radius=r2, center=(3.5, 0.0))
        base = a[0]
        composite = np.vstack([a[:-1], [base], b - (b[0] - base)])
        wa = tp.winding_number(a)
        wb = tp.winding_number(b + (base - b[0]))
        assert tp.winding_number(composite) == wa + wb
        assert tp.winding_number(composite[::-1]) == -(wa + wb)
        scale = float(rng.uniform(0.01, 100.0))
        assert tp.winding_number(scale * composite) == wa + wb
    _announce(9, "canonical windings 1/0/-1; additivity, reversal, scaling on 50 composites")


def test_criterion_10_classification_and_cli(tmp_path, capsys):
    # generator soundness across seeds 0..31
    for target in SIX:
        for seed in range(32):
            for psi in lounesto.generate(target, seed=seed, count=2):
                assert lounesto.classify(psi).lounesto_class is target
    # rescaling invariance on 1000 random pairs
    rng = np.random.default_rng(110)
    for _ in range(1000):
        psi = random_spinor(rng)
        c = complex(rng.standard_normal(), rng.standard_normal())
        while abs(c) < 1e-3:
            c = complex(rng.standard_normal(), rng.standard_normal())
        assert lounesto.rescale_class_invariance(psi, c)
    # deterministic reports and byte-stable command output
    gen_path = tmp_path / "gen.json"
    assert cli.main(["generate", "--class", "5", "--count", "3", "--seed", "4",
                     "--out", str(gen_path)]) == 0
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert cli.main(["classify", str(gen_path), "--out", str(first)]) == 0
    assert cli.main(["classify", str(gen_path), "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert all(r["class"] == "5" for r in doc["results"])
    elapsed = time.perf_counter() - _T0
    assert elapsed < 60.0
    _announce(10, f"generators sound over seeds 0..31, rescaling invariant, "
                  f"reports byte-stable; acceptance wall time {elapsed:.1f}s")
