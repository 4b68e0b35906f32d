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

Both signatures share one kernel over a stack of 16 Hermitian forms, the
adjoint times the images of one engine-built covariant basis Gamma_A (which
fierz also sums into the aggregate and uses as its probes); they differ only
in the generators, the adjoint and the ORIENTATION sign.  The kernel takes a
batch (..., 4) of spinors; each row is bit for bit the single-spinor result.
"""

from __future__ import annotations

import functools

import numpy as np

from . import conventions
from .clifford import (_I2, _O2, PAULI, GammaRep, InternalError, Record, Signature, _blade_matrices, _block,
                       _fitting, _frozen, _ldexp_quiet, _numbers, _product_table, _quiet, _ray, _row_norm, _unbox)
from .spinor_forms import BIVECTOR_ORDER, ClassicalSpinor, Quaternion

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
_UNFIT = "covariants do not fit in float64"

# the covariants in stored order with their shapes: the layout of a
# covariant stack, and the fields of an entry of a covariant file
_COVARIANT_FIELDS = (("sigma", ()), ("omega", ()), ("J", (4,)), ("K", (4,)), ("S", (6,)))
# how many components each has, and where each starts in a stack
_GROUP_SIZES = tuple(int(np.prod(shape)) for _, shape in _COVARIANT_FIELDS)
_GROUP_STARTS = _frozen(np.cumsum((0,) + _GROUP_SIZES[:-1]))


class BilinearSet(Record):
    """The observables of one spinor, or of a batch of them.  Vector
    components are stored with the index down; S components follow the
    (01, 02, 03, 12, 13, 23) order.

    For a batch of shape B, sigma and omega have shape B, J and K shape
    B + (4,) and S shape B + (6,); a single set has B = () with float sigma
    and omega.  All are views of one read-only (..., 16) stack().
    """

    _tags = ("signature",)
    _views = tuple((name, slice(start, start + size) if shape else start) for (name, shape), start, size
                   in zip(_COVARIANT_FIELDS, _GROUP_STARTS.tolist(), _GROUP_SIZES))
    _holds = "covariants"

    def __init__(self, sigma, omega, J, K, S, signature: Signature = Signature.MINKOWSKI) -> None:
        sigma, omega, j, k, s = (_numbers(field, np.float64, self._holds) for field in (sigma, omega, J, K, S))
        batch = sigma.shape
        if j.shape != batch + (4,) or k.shape != batch + (4,):
            raise ValueError("J and K must have 4 components")
        if s.shape != batch + (6,):
            raise ValueError("S must have 6 components (01, 02, 03, 12, 13, 23)")
        if omega.shape != batch:
            raise ValueError("sigma and omega must have the same batch shape")
        super().__init__(np.concatenate([sigma[..., None], omega[..., None], j, k, s], axis=-1), signature=signature)

    def __post_init__(self, v: np.ndarray) -> None:
        if v.shape[-1:] != (16,):
            raise ValueError(f"expected 16 covariant components, got shape {v.shape}")

    @classmethod
    def from_stack(cls, v: np.ndarray, signature: Signature = Signature.MINKOWSKI) -> "BilinearSet":
        """The set whose stack() is v, a (..., 16) array (copied)."""
        b = object.__new__(cls)
        Record.__init__(b, _numbers(v, np.float64, cls._holds), signature=signature)
        return b

    # 2-norm over the 16 stored components, the package's one row norm; scales like |psi|^2
    component_norm = _row_norm


@_quiet
def minkowski_square(v: np.ndarray) -> float:
    """v^mu v_mu with the (+, -, -, -) contraction; inf or nan, with no
    warning, where the squares overflow."""
    return float(v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2)


@_quiet
def minkowski_dot(u: np.ndarray, v: np.ndarray) -> float:
    """u^mu v_mu with the (+, -, -, -) contraction; inf or nan, with no
    warning, where the products overflow."""
    return float(u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3])


def dirac_adjoint(psi: ClassicalSpinor) -> np.ndarray:
    """Row psi^dag g0 in the spinor's own representation."""
    return psi.components.conj() @ psi.rep.gammas[0]


# generators of the Euclidean algebra acting on C^4; squares are +1 and the
# five closed-form component expressions are exactly their sandwiches
EUCLIDEAN_GENERATORS = (
    _block(_I2, _O2, _O2, -_I2),
    _block(_O2, 1j * PAULI[0], -1j * PAULI[0], _O2),
    _block(_O2, -1j * PAULI[1], 1j * PAULI[1], _O2),
    _block(_O2, -1j * PAULI[2], 1j * PAULI[2], _O2),
)

# volume form orientation fixed by the omega component formula; equals minus
# the ordered product E0 E1 E2 E3
EUCLIDEAN_VOLUME = _block(_O2, _I2, _I2, _O2)

# the Euclidean generators as a representation of their own, not a spinor tag
_EUCLIDEAN_REP = GammaRep("euclidean", EUCLIDEAN_GENERATORS)

# Orientation of the volume element relative to the stored omega: +1 in the
# time-minus signature, -1 in the Euclidean one, whose omega is read through
# the reversed volume EUCLIDEAN_VOLUME.  The sign fixes the K forms, the
# aggregate's volume term and the mirrored quadratic identities.
ORIENTATION = {Signature.MINKOWSKI: 1.0, Signature.EUCLIDEAN: -1.0}
# the calibrated scale of the stored S in each signature, of size 1/2
_S_SCALES = {Signature.MINKOWSKI: conventions.S_SCALE, Signature.EUCLIDEAN: conventions.S_SCALE_EUCLIDEAN}

_LABELS = (
    ("sigma", "omega")
    + tuple(f"J_{mu}" for mu in range(4))
    + tuple(f"K_{mu}" for mu in range(4))
    + tuple(f"S_{mu}{nu}" for mu, nu in BIVECTOR_ORDER)
)


def _by_group(sigma, omega, j, k, s) -> np.ndarray:
    """(16,) array holding each group's value (or 4 or 6 values) in stored order."""
    return np.concatenate([np.broadcast_to(v, (n,)) for v, n in
                           zip((sigma, omega, j, k, s), _GROUP_SIZES)]).astype(float)


@functools.lru_cache(maxsize=None)
def _covariant_blades(signature: Signature) -> tuple[np.ndarray, np.ndarray]:
    """(blade, coefficient) of each element of the covariant basis Gamma_A
    in stored order, 1, -e0123, e_mu, i e0123 e_mu, i [e_mu, e_nu] = 2i e_mu
    e_nu, each one blade times a number read off the engine's product table."""
    index, sign = _product_table(signature)
    mu, (first, second) = np.arange(1, 5), np.array(BIVECTOR_ORDER).T + 1
    blades = np.concatenate([[0, 15], mu, index[15, mu], index[first, second]])
    coeffs = np.concatenate([[1.0, -1.0], np.ones(4), 1j * sign[15, mu], 2j * sign[first, second]])
    return _frozen(blades, coeffs)


@functools.lru_cache(maxsize=None)
def _covariant_basis(signature: Signature) -> np.ndarray:
    """(16, 16) read-only coefficients of the covariant basis Gamma_A, the
    terms of the aggregate."""
    blades, coeffs = _covariant_blades(signature)
    basis = np.zeros((16, 16), dtype=np.complex128)
    basis[np.arange(16), blades] = coeffs
    # -e0123 negates the whole pseudoscalar row, as the engine does: its zeros are -0
    basis[1] = -np.eye(16, dtype=np.complex128)[15]
    return _frozen(basis)


@functools.lru_cache(maxsize=None)
def _forms(signature: Signature, rep: GammaRep | None) -> np.ndarray:
    """(16, 4, 4) Hermitian forms whose sandwiches are sigma, omega, J, K and
    the unscaled S: the adjoint times the images of Gamma_A, signed 1, 1, 1,
    orientation, -1 by group (the commutator sandwich is imaginary)."""
    if signature is Signature.EUCLIDEAN:
        rep, adj = _EUCLIDEAN_REP, np.eye(4, dtype=np.complex128)
    else:
        adj = rep.gammas[0]
    blades, coeffs = _covariant_blades(signature)
    images = coeffs[:, None, None] * _blade_matrices(rep)[blades]
    return _frozen(_by_group(1.0, 1.0, 1.0, ORIENTATION[signature], -1.0)[:, None, None] * (adj @ images))


@functools.lru_cache(maxsize=16)
def _s_weights(factor: float) -> np.ndarray:
    """(16,) read-only weights, 1 on sigma, omega, J, K and factor on S."""
    return _frozen(_by_group(1.0, 1.0, 1.0, 1.0, factor))


def _covariants(comps: np.ndarray, signature: Signature, rep: GammaRep | None = None) -> np.ndarray:
    """(..., 16) real covariants sigma, omega, J, K, S of the (..., 4) batch
    comps, in stored order, as a fresh array.  Whether they fit in float64
    is for the caller to check once, after its last scaling (_fitting)."""
    values = np.einsum("...i,kij,...j->...k", comps.conj(), _forms(signature, rep), comps)
    # every row holds |psi|^2 (J_0 or sigma) and nothing larger than 2 |psi|^2
    moduli = np.abs(values.view(np.float64))   # |real part|, |imaginary part| in turn
    scale = np.maximum.reduce(moduli[..., ::2], axis=-1, keepdims=True)
    real = moduli[..., 1::2] <= REALITY_TOL * np.maximum(scale, 1e-300)
    if not np.logical_and.reduce(real, axis=None):
        # a row that does not fit fails the comparison too: it is the input's fault
        _fitting(values, _UNFIT)
        k = int(np.argmin(real.reshape(-1, len(_LABELS)).all(axis=0)))
        raise InternalError(
            f"internal consistency: {_LABELS[k]} acquired an imaginary part "
            f"{np.max(np.abs(values.imag[..., k])):.3e} beyond tolerance"
        )
    # no weight above 1: no finite product overflows
    return values.real * _s_weights(_S_SCALES[signature])


def _covariants_on_ray(psi: ClassicalSpinor) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ray, e, v, b): psi's components on their power-of-two ray (clifford._ray),
    psi = ray 2^e; the ray's covariants v, of order 1 in every row; and psi's
    own, b = v 4^e, exact wherever they are normal floats.  Spinors whose b
    does not fit in float64 raise RowError naming their rows."""
    ray, e = _ray(psi.components)
    v = _covariants(ray, Signature.MINKOWSKI, psi.rep)
    return ray, e, v, _fitting(_ldexp_quiet(v, 2 * e), _UNFIT)


def bilinear_covariants(psi: ClassicalSpinor) -> BilinearSet:
    """All five covariants of a time-minus spinor in its own representation;
    a batch of spinors gives the covariant batch of the same shape.

    S carries the calibrated normalization conventions.S_SCALE.  Spinors
    whose covariants overflow float64 raise RowError (a ValueError) naming
    their rows; anything but a ClassicalSpinor is a ValueError.
    """
    if not isinstance(psi, ClassicalSpinor):
        raise ValueError(f"expected a ClassicalSpinor, got {type(psi).__name__}")
    v = _covariants(psi.components, Signature.MINKOWSKI, psi.rep)
    return BilinearSet._of(_fitting(v, _UNFIT), signature=Signature.MINKOWSKI)


def euclidean_bilinears(psi) -> BilinearSet:
    """Observables of psi in C^4 read through the Euclidean algebra, S with
    the calibrated conventions.S_SCALE_EUCLIDEAN; psi may be a (..., 4)
    batch, as components or as a ClassicalSpinor, whose representation tag
    the Euclidean forms do not read."""
    comps = psi.components if isinstance(psi, ClassicalSpinor) else np.asarray(psi, dtype=np.complex128)
    if comps.shape[-1:] != (4,):
        raise ValueError(f"expected 4 components, got shape {comps.shape}")
    return BilinearSet._of(_fitting(_covariants(comps, Signature.EUCLIDEAN), _UNFIT), signature=Signature.EUCLIDEAN)


@_quiet
def euclidean_components_closed_form(psi):
    """Closed-form (sigma, omega, J) of psi in C^4, no matrices involved; a
    (..., 4) batch gives arrays of the batch shape and J of shape (..., 4).
    Components whose squares overflow give inf (or nan) with no warning."""
    comps = np.asarray(psi, dtype=np.complex128)
    if comps.shape[-1:] != (4,):
        raise ValueError(f"expected 4 components, got shape {comps.shape}")
    # one column per component, so a single spinor runs the batch arithmetic
    p1, p2, p3, p4 = comps.reshape(-1, 4).T
    n1, n2, n3, n4 = (p.real ** 2 + p.imag ** 2 for p in (p1, p2, p3, p4))
    omega = 2.0 * (p1 * p3.conj() + p2 * p4.conj()).real
    j = np.stack([
        n1 + n2 - n3 - n4,
        2.0 * (p1 * p4.conj() + p2 * p3.conj()).imag,
        2.0 * (p2 * p3.conj() - p1 * p4.conj()).real,
        2.0 * (p3 * p1.conj() + p2 * p4.conj()).imag,
    ], axis=-1)
    batch = comps.shape[:-1]
    return _unbox((n1 + n2 + n3 + n4).reshape(batch)), _unbox(omega.reshape(batch)), j.reshape(batch + (4,))


def quaternion_pair_to_c4(q1: Quaternion, q2: Quaternion) -> np.ndarray:
    """Isometric splitting H^2 -> C^4 used by the Euclidean layer:
    q = w + xi + yj + zk maps to the pair (w + zi, y + xi); (..., 4) for
    quaternion batches."""
    v = np.concatenate([q1.as_array(), q2.as_array()], axis=-1)[..., [0, 3, 2, 1, 4, 7, 6, 5]]
    return np.ascontiguousarray(v).view(np.complex128)


def quaternionic_euclidean_components(q1: Quaternion, q2: Quaternion):
    """(sigma, omega, J0, (J1, J2, J3)) straight from the quaternion pair.

    The spatial components are the forms induced by quaternion_pair_to_c4,
    so this route agrees with the closed-form C^4 expressions exactly.
    Quaternion batches give arrays of their batch shape.
    """
    sigma = q1.dot(q1) + q2.dot(q2)
    j0 = q1.dot(q1) - q2.dot(q2)
    # 2 Re(q1^* u q2) for the units u = 1, i, j, k
    omega, j1, j2, j3 = (2.0 * (q1.conjugate() * Quaternion._of(u) * q2).w for u in np.eye(4))
    return sigma, omega, j0, (j1, j2, -j3)
