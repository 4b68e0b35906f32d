"""Bilinear covariants of classical spinors.

Time-minus signature: with the Dirac adjoint psibar = psi^dag g0, the five
observables are

    sigma   = psibar psi
    omega   = -psibar g0 g1 g2 g3 psi
    J_mu    = psibar g_mu psi
    K_mu    = i psibar g0 g1 g2 g3 g_mu psi
    S_munu  = (scale) psibar [g_mu, g_nu] psi

all real.  The commutator sandwich is purely imaginary, so S stores its
imaginary part times the calibrated scale (see conventions).

Euclidean signature: the adjoint degenerates to the plain conjugate
transpose and the generator images below are fixed so the closed-form
component expressions (sigma = sum |psi_i|^2, J0 = |psi1|^2 + |psi2|^2
- |psi3|^2 - |psi4|^2, ...) come out of the matrix route verbatim.

Both signatures share one kernel over a stack of 16 Hermitian forms; they
differ only in the generators, the adjoint and the ORIENTATION sign.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import conventions
from .clifford import _I2, _O2, GammaRep, PAULI, Signature
from .spinor_forms import _QI, _QJ, _QK, BIVECTOR_ORDER, ClassicalSpinor, Quaternion

__all__ = [
    "BilinearSet",
    "dirac_adjoint",
    "bilinear_covariants",
    "euclidean_bilinears",
    "euclidean_components_closed_form",
    "quaternionic_euclidean_components",
    "quaternion_pair_to_c4",
    "minkowski_square",
    "minkowski_dot",
]

REALITY_TOL = 1e-10


@dataclass(frozen=True)
class BilinearSet:
    """The observables of one spinor.  Vector components are stored with the
    index down; S components follow the (01, 02, 03, 12, 13, 23) order."""

    sigma: float
    omega: float
    J: np.ndarray
    K: np.ndarray
    S: np.ndarray
    signature: Signature = Signature.MINKOWSKI

    def __post_init__(self) -> None:
        j = np.array(self.J, dtype=float)
        k = np.array(self.K, dtype=float)
        s = np.array(self.S, dtype=float)
        if j.shape != (4,) or k.shape != (4,):
            raise ValueError("J and K must have 4 components")
        if s.shape != (6,):
            raise ValueError("S must have 6 components (01, 02, 03, 12, 13, 23)")
        sigma, omega = float(self.sigma), float(self.omega)
        if not np.all(np.isfinite(np.concatenate([[sigma, omega], j, k, s]))):
            raise ValueError("covariants must be finite")
        for arr in (j, k, s):
            arr.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "S", s)

    def component_norm(self) -> float:
        """2-norm over the 16 stored components; scales like |psi|^2."""
        return float(np.sqrt(
            self.sigma ** 2 + self.omega ** 2
            + np.sum(self.J ** 2) + np.sum(self.K ** 2) + np.sum(self.S ** 2)
        ))

    def as_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "omega": self.omega,
            "J": self.J.tolist(),
            "K": self.K.tolist(),
            "S": self.S.tolist(),
        }


def minkowski_square(v: np.ndarray) -> float:
    """v^mu v_mu with the (+, -, -, -) contraction."""
    return float(v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2)


def minkowski_dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3])


def dirac_adjoint(psi: ClassicalSpinor) -> np.ndarray:
    """Row psi^dag g0 in the spinor's own representation."""
    return psi.components.conj() @ psi.rep.gammas[0]


# generators of the Euclidean algebra acting on C^4; squares are +1 and the
# five closed-form component expressions are exactly their sandwiches
EUCLIDEAN_GENERATORS = (
    np.block([[_I2, _O2], [_O2, -_I2]]),
    np.block([[_O2, 1j * PAULI[0]], [-1j * PAULI[0], _O2]]),
    np.block([[_O2, -1j * PAULI[1]], [1j * PAULI[1], _O2]]),
    np.block([[_O2, -1j * PAULI[2]], [1j * PAULI[2], _O2]]),
)

# volume form orientation fixed by the omega component formula; equals minus
# the ordered product E0 E1 E2 E3
EUCLIDEAN_VOLUME = np.block([[_O2, _I2], [_I2, _O2]])

for _m in EUCLIDEAN_GENERATORS + (EUCLIDEAN_VOLUME,):
    _m.flags.writeable = False

# Orientation of the volume element relative to the stored omega: +1 in the
# time-minus signature, -1 in the Euclidean one, whose omega is read through
# the reversed volume EUCLIDEAN_VOLUME.  The sign fixes the K forms, the
# aggregate's volume term and the mirrored quadratic identities.
ORIENTATION = {Signature.MINKOWSKI: 1.0, Signature.EUCLIDEAN: -1.0}

_LABELS = (
    ("sigma", "omega")
    + tuple(f"J_{mu}" for mu in range(4))
    + tuple(f"K_{mu}" for mu in range(4))
    + tuple(f"S_{mu}{nu}" for mu, nu in BIVECTOR_ORDER)
)


@functools.lru_cache(maxsize=None)
def _forms(signature: Signature, rep: GammaRep | None) -> np.ndarray:
    """(16, 4, 4) Hermitian forms whose sandwiches are sigma, omega, J, K and
    the unscaled S, in stored order.  With adjoint A and volume e0123:

        sigma = A,  omega = -A e0123,  J_mu = A e_mu,
        K_mu = orientation i A e0123 e_mu,  S_munu = -i A [e_mu, e_nu]

    (the commutator sandwich is imaginary, so its form carries -i)."""
    if signature is Signature.MINKOWSKI:
        g, adj = rep.gammas, rep.gammas[0]
    else:
        g, adj = EUCLIDEAN_GENERATORS, np.eye(4, dtype=np.complex128)
    vol = adj @ g[0] @ g[1] @ g[2] @ g[3]
    forms = np.stack(
        [adj, -vol]
        + [adj @ g[mu] for mu in range(4)]
        + [ORIENTATION[signature] * 1j * (vol @ g[mu]) for mu in range(4)]
        + [-1j * (adj @ (g[mu] @ g[nu] - g[nu] @ g[mu])) for mu, nu in BIVECTOR_ORDER]
    )
    forms.flags.writeable = False
    return forms


def _covariants(comps: np.ndarray, c_S: float, signature: Signature,
                rep: GammaRep | None = None) -> BilinearSet:
    values = np.einsum("i,kij,j->k", comps.conj(), _forms(signature, rep), comps)
    scale = float(np.vdot(comps, comps).real)
    bad = np.abs(values.imag) > REALITY_TOL * max(scale, 1e-300)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"internal consistency: {_LABELS[k]} acquired an imaginary part "
            f"{values.imag[k]:.3e} beyond tolerance"
        )
    v = values.real
    return BilinearSet(v[0], v[1], v[2:6], v[6:10], c_S * v[10:], signature)


def bilinear_covariants(psi: ClassicalSpinor, c_S: float | None = None) -> BilinearSet:
    """All five covariants of a time-minus spinor in its own representation.

    c_S is the calibrated normalization of the tensor bilinear; the default
    comes from the frozen conventions and should not normally be overridden.
    """
    if c_S is None:
        c_S = conventions.S_SCALE
    return _covariants(psi.components, c_S, Signature.MINKOWSKI, psi.rep)


def euclidean_bilinears(psi, c_S: float | None = None) -> BilinearSet:
    """Observables of psi in C^4 read through the Euclidean algebra."""
    if c_S is None:
        c_S = conventions.S_SCALE_EUCLIDEAN
    comps = np.asarray(psi, dtype=np.complex128).reshape(4)
    return _covariants(comps, c_S, Signature.EUCLIDEAN)


def euclidean_components_closed_form(psi):
    """Closed-form (sigma, omega, J) of psi in C^4, no matrices involved."""
    p1, p2, p3, p4 = np.asarray(psi, dtype=np.complex128).reshape(4)
    sigma = abs(p1) ** 2 + abs(p2) ** 2 + abs(p3) ** 2 + abs(p4) ** 2
    omega = 2.0 * (p1 * p3.conjugate() + p2 * p4.conjugate()).real
    j = np.array([
        abs(p1) ** 2 + abs(p2) ** 2 - abs(p3) ** 2 - abs(p4) ** 2,
        2.0 * (p1 * p4.conjugate() + p2 * p3.conjugate()).imag,
        2.0 * (p2 * p3.conjugate() - p1 * p4.conjugate()).real,
        2.0 * (p3 * p1.conjugate() + p2 * p4.conjugate()).imag,
    ])
    return float(sigma), float(omega), j


def quaternion_pair_to_c4(q1: Quaternion, q2: Quaternion) -> np.ndarray:
    """Isometric splitting H^2 -> C^4 used by the Euclidean layer:
    q = w + xi + yj + zk maps to the pair (w + zi, y + xi)."""
    return np.array(
        [q1.w + 1j * q1.z, q1.y + 1j * q1.x,
         q2.w + 1j * q2.z, q2.y + 1j * q2.x],
        dtype=np.complex128,
    )


def quaternionic_euclidean_components(q1: Quaternion, q2: Quaternion):
    """(sigma, omega, J0, (J1, J2, J3)) straight from the quaternion pair.

    The spatial components are the forms induced by quaternion_pair_to_c4,
    so this route agrees with the closed-form C^4 expressions exactly.
    """
    sigma = q1.dot(q1) + q2.dot(q2)
    omega = 2.0 * (q1.conjugate() * q2).w
    j0 = q1.dot(q1) - q2.dot(q2)
    j1 = 2.0 * (q1.conjugate() * _QI * q2).w
    j2 = 2.0 * (q1.conjugate() * _QJ * q2).w
    j3 = -2.0 * (q1.conjugate() * _QK * q2).w
    return float(sigma), float(omega), float(j0), (float(j1), float(j2), float(j3))
