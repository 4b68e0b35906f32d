#!/usr/bin/env python3
"""Re-derive the frozen bilinear normalization constants by brute force.

Tensor-bilinear conventions drift between sources by factors of 2 and i, so
the package does not trust any printed form: this script scans candidate
scales and orientation signs over random spinors and reports the unique
combination for which the quadratic identity set closes.  The winners are
frozen in spinorspace.conventions and re-pinned by the test suite.

Run:  python3 scripts/calibrate_conventions.py [--trials N] [--seed S]
"""

import argparse

import numpy as np

from spinorspace import clifford as cl
from spinorspace import conventions
from spinorspace.bilinears import BilinearSet, bilinear_covariants, euclidean_bilinears
from spinorspace.fierz import (
    aggregate,
    bivector_multivector,
    fpk_residuals,
    vector_multivector,
)
from spinorspace.spinor_forms import BIVECTOR_ORDER, ClassicalSpinor

CANDIDATES = (1.0, -1.0, 0.5, -0.5)


def random_spinor(rng):
    return ClassicalSpinor(rng.standard_normal(4) + 1j * rng.standard_normal(4), cl.WEYL)


def rescaled(b, ratio):
    """The covariant set b with S scaled by ratio, the candidate scale over
    the frozen one: +-1 or +-2, so exactly the set that candidate gives."""
    return BilinearSet(b.sigma, b.omega, b.J, b.K, b.S * ratio, signature=b.signature)


def scan_time_minus(rng, trials):
    """The tensor scale must close the wedge identity, the aggregate
    idempotency, and the rank-one matrix expansion simultaneously."""
    print("time-minus tensor scale:")
    winners = []
    for candidate in CANDIDATES:
        worst = 0.0
        for _ in range(trials):
            psi = random_spinor(rng)
            b = rescaled(bilinear_covariants(psi), candidate / conventions.S_SCALE)
            z = aggregate(b)
            outer = 4.0 * np.outer(
                psi.components, psi.components.conj() @ cl.WEYL.gammas[0]
            )
            worst = max(
                worst,
                fpk_residuals(b).r4 / psi.norm() ** 4,
                (z * z - 4.0 * b.sigma * z).max_abs() / z.norm() ** 2,
                float(np.max(np.abs(cl.rep_matrix(z, cl.WEYL) - outer))) / psi.norm() ** 2,
            )
        tag = "  <-- closes all identities" if worst < 1e-12 else ""
        print(f"  c_S = {candidate:+.2f}: worst residual {worst:.2e}{tag}")
        if worst < 1e-12:
            winners.append(candidate)
    assert winners == [conventions.S_SCALE], winners
    return winners[0]


def scan_generalized_factor(rng, trials):
    """Factor on the tensor line of the quarter-sandwich identity family."""
    print("quarter-sandwich tensor factor:")
    winners = []
    for kappa in (1.0, 2.0, -2.0, 0.5):
        worst = 0.0
        for _ in range(trials):
            psi = random_spinor(rng)
            b = bilinear_covariants(psi)
            z = aggregate(b)
            sandwich = 0.25 * (cl.left_mul_matrix(z) @ cl.right_mul_matrix(z))
            for idx, (mu, nu) in enumerate(BIVECTOR_ORDER):
                probe = (1j * (cl.basis_vector(mu) * cl.basis_vector(nu)
                               - cl.basis_vector(nu) * cl.basis_vector(mu))).coeffs
                resid = sandwich @ probe - kappa * b.S[idx] * z.coeffs
                worst = max(worst, float(np.max(np.abs(resid))) / z.norm() ** 2)
        tag = "  <-- closes the identity" if worst < 1e-12 else ""
        print(f"  factor = {kappa:+.2f}: worst residual {worst:.2e}{tag}")
        if worst < 1e-12:
            winners.append(kappa)
    assert winners == [conventions.GENERALIZED_S_FACTOR], winners
    return winners[0]


def scan_euclidean(rng, trials):
    """Euclidean tensor scale, via the mirrored wedge identity
    J wedge K = (omega + sigma e0123) S."""
    print("Euclidean tensor scale:")
    sig = cl.Signature.EUCLIDEAN
    e5 = cl.pseudoscalar(sig)
    winners = []
    for candidate in CANDIDATES:
        worst = 0.0
        for _ in range(trials):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = rescaled(euclidean_bilinears(psi), candidate / conventions.S_SCALE_EUCLIDEAN)
            jmv = vector_multivector(b.J, sig)
            kmv = vector_multivector(b.K, sig)
            smv = bivector_multivector(b.S, sig)
            wedge = cl.grade_projection(jmv * kmv, 2)
            resid = wedge - (cl.scalar(b.omega, sig) + b.sigma * e5) * smv
            worst = max(worst, resid.max_abs() / np.linalg.norm(psi) ** 4)
        tag = "  <-- closes the identity" if worst < 1e-12 else ""
        print(f"  c_S = {candidate:+.2f}: worst residual {worst:.2e}{tag}")
        if worst < 1e-12:
            winners.append(candidate)
    assert winners == [conventions.S_SCALE_EUCLIDEAN], winners
    return winners[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    s_scale = scan_time_minus(rng, args.trials)
    factor = scan_generalized_factor(rng, args.trials)
    s_euclid = scan_euclidean(rng, args.trials)
    print()
    print("frozen values confirmed:")
    print(f"  S_SCALE              = {s_scale:+.2f}")
    print(f"  GENERALIZED_S_FACTOR = {factor:+.2f}")
    print(f"  S_SCALE_EUCLIDEAN    = {s_euclid:+.2f}")


if __name__ == "__main__":
    main()
