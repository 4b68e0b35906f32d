"""Frozen normalization constants for the bilinear covariants.

Conventions for the antisymmetric tensor bilinear drift between sources by
factors of 2 and i.  Rather than trusting any single printed form, the
constants below were fixed by a brute-force calibration oracle over random
spinors (scripts/calibrate_conventions.py): the time-minus scale is the
unique candidate for which

    J wedge K = -(omega + sigma e0123) S       (tensor identity)
    Z Z       = 4 sigma Z                      (aggregate idempotency)
    rep(Z)    = 4 psi psibar                   (rank-one matrix oracle)

all hold identically, and the Euclidean scale is the unique candidate for
which the mirrored identity J wedge K = +(omega + sigma e0123) S holds
together with the Euclidean rank-one expansion.  The test suite re-derives
every value.
"""

# values reproduced by scripts/calibrate_conventions.py and pinned in tests;
# S_{mu nu} = S_SCALE * Im(psibar [g_mu, g_nu] psi), time-minus signature
S_SCALE = -0.5
# quarter-sandwich identity (1/4) Z i[g_mu, g_nu] Z = GENERALIZED_S_FACTOR * S_{mu nu} Z
GENERALIZED_S_FACTOR = 2.0
# S_{mu nu} = S_SCALE_EUCLIDEAN * Im(psi^dag [e_mu, e_nu] psi), Euclidean
S_SCALE_EUCLIDEAN = -0.5
