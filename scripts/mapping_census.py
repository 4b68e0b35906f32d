#!/usr/bin/env python3
"""Census of the singular class-4 mapping over random parameter draws.

For each draw the script reports |det M|, the two constraint residuals, and
the class histogram of mapped regular spinors, including the self-adjoint
subfamily (whose images, notably, still carry the full flag-dipole pattern).

Run:  python3 scripts/mapping_census.py [--draws N] [--seed S]
"""

import argparse

import numpy as np

from spinorspace import classmap
from spinorspace.bilinears import bilinear_covariants
from spinorspace.lounesto import LounestoClass, classify, generate

REGULAR = (LounestoClass.C1, LounestoClass.C2, LounestoClass.C3)


def census(rng, draws, hermitian):
    histogram = {}
    worst_det = worst_con = worst_scalar = 0.0
    k_norms, s_norms = [], []
    for i in range(draws):
        if hermitian:
            m = classmap.hermitian_constrain(classmap.random_hermitian_params(rng))
        else:
            m = classmap.build_M(classmap.random_params(rng))
        worst_det = max(worst_det, classmap.no_inverse_witness(m.matrix) / m.frobenius() ** 4)
        worst_con = max(worst_con,
                        max(classmap.constraint_residuals(m.matrix)) / m.frobenius() ** 2)
        phi = generate(REGULAR[i % 3], seed=i, count=1)[0]
        mapped = classmap.map_to_class4(m, phi)
        b = bilinear_covariants(mapped.spinor)
        n2 = mapped.spinor.norm() ** 2
        worst_scalar = max(worst_scalar, abs(b.sigma) / n2, abs(b.omega) / n2)
        k_norms.append(np.linalg.norm(b.K) / n2)
        s_norms.append(np.linalg.norm(b.S) / n2)
        label = classify(mapped.spinor).lounesto_class.value
        histogram[label] = histogram.get(label, 0) + 1
    return histogram, worst_det, worst_con, worst_scalar, k_norms, s_norms


def report(title, stats):
    histogram, worst_det, worst_con, worst_scalar, k_norms, s_norms = stats
    print(title)
    print(f"  worst |det M| / |M|^4        : {worst_det:.2e}")
    print(f"  worst constraint residual    : {worst_con:.2e}")
    print(f"  worst image sigma, omega     : {worst_scalar:.2e}")
    print(f"  median relative |K|, |S|     : {np.median(k_norms):.3f}, {np.median(s_norms):.3f}")
    print(f"  image class histogram        : {dict(sorted(histogram.items()))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    report("generic parameter draws:", census(rng, args.draws, hermitian=False))
    print()
    report("self-adjoint subfamily:", census(rng, args.draws, hermitian=True))


if __name__ == "__main__":
    main()
