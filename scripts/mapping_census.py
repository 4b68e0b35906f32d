#!/usr/bin/env python3
"""Census of the singular class-4 mapping over random parameter draws.

For each draw the script reports |det M|, the two constraint residuals, and
the class histogram of mapped regular spinors, including the self-adjoint
subfamily (whose images, notably, still carry the full flag-dipole pattern).

Run:  python3 scripts/mapping_census.py [--draws N] [--seed S]
"""

import argparse
from collections import Counter

import numpy as np

from spinorspace import classmap
from spinorspace.clifford import WEYL
from spinorspace.lounesto import LounestoClass, generate
from spinorspace.spinor_forms import ClassicalSpinor

REGULAR = (LounestoClass.C1, LounestoClass.C2, LounestoClass.C3)


def census(rng, draws, hermitian):
    """The statistics of draws parameter sets, drawn from rng in turn and
    mapped as one batch, draw i mapping a regular spinor of seed i."""
    if hermitian:
        params = [classmap.hermitian_constrain(classmap.random_hermitian_params(rng)).params for _ in range(draws)]
    else:
        params = [classmap.random_params(rng) for _ in range(draws)]
    m = classmap.build_M(classmap.MappingParams(*np.array([p.stack() for p in params]).T))
    frobenius = m.frobenius()
    worst_det = np.max(classmap.no_inverse_witness(m.matrix) / frobenius ** 4)
    worst_con = np.max(np.maximum(*classmap.constraint_residuals(m.matrix)) / frobenius ** 2)
    phi = ClassicalSpinor([generate(REGULAR[i % 3], seed=i, count=1)[0].components for i in range(draws)], WEYL)
    mapped = classmap.map_to_class4(m, phi)
    b = mapped.report.bilinears
    n2 = mapped.spinor.norm() ** 2
    worst_scalar = np.max(np.abs([b.sigma, b.omega]) / n2)
    k_norms = np.linalg.norm(b.K, axis=-1) / n2
    s_norms = np.linalg.norm(b.S, axis=-1) / n2
    histogram = Counter(cls.value for cls in mapped.report.lounesto_class)
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
