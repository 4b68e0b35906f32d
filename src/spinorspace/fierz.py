"""Quadratic identities among the covariants, the multivector aggregate, and
spinor reconstruction.

Every nonzero spinor packs its observables into the complex aggregate

    Z = sigma + J + i S + i K e0123 + omega e0123

whose matrix image equals the rank-one operator 4 psi psibar; it is the
weighted sum of the covariant basis Gamma_A of bilinears.  That single
fact drives everything here: the scalar identities, the idempotency
Z Z = 4 sigma Z (nilpotency when sigma = 0), the quarter-sandwich identity
family, and the inversion Z xi proportional to psi.

Euclidean covariants go through the same aggregate and identity residuals
with the Euclidean contraction; the orientation sign of bilinears flips the
volume term to -omega e0123 and mirrors the identities.

Every function takes a batch: covariants of batch shape B give aggregates
with coefficients B + (16,) and residuals of shape B (or B + (k,) for a
family of k), reduced over the trailing axes only.  A single set is the
batch of shape () and gives floats.
"""

from __future__ import annotations

import functools

import numpy as np

from . import conventions
from .bilinears import (ORIENTATION, BilinearSet, _by_group, _covariant_basis, _covariant_blades, _s_weights,
                        minkowski_dot, minkowski_square)
from .clifford import (Multivector, Record, RowError, Signature, _mul_gather, _unbox, left_mul_matrix, pseudoscalar,
                       rep_matrix, scalar)
from .spinor_forms import BIVECTOR_ORDER, ClassicalSpinor

__all__ = [
    "FpkResiduals",
    "SingularAggregateParams",
    "fpk_residuals",
    "aggregate",
    "boomerang_residual",
    "is_boomerang",
    "generalized_fpk_residuals",
    "build_singular_aggregate",
    "reconstruct",
    "default_probe_spinor",
    "vector_multivector",
    "bivector_multivector",
]


def vector_multivector(components, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    """Grade-1 multivector with index-down (..., 4) components, raised with eta_mu."""
    components = np.asarray(components, dtype=np.complex128)
    c = np.zeros(components.shape[:-1] + (16,), dtype=np.complex128)
    c[..., 1:5] = components * signature.metric
    return Multivector(signature, c)


def bivector_multivector(components, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    """Grade-2 multivector with index-down (..., 6) components in (01, 02, 03,
    12, 13, 23) order, raised with eta_mu eta_nu."""
    eta = signature.metric
    raising = [eta[mu] * eta[nu] for mu, nu in BIVECTOR_ORDER]
    components = np.asarray(components, dtype=np.complex128)
    c = np.zeros(components.shape[:-1] + (16,), dtype=np.complex128)
    c[..., 5:11] = components * raising
    return Multivector(signature, c)


class FpkResiduals(Record):
    """Deviations from the four quadratic covariant identities.

    r1 = J.J - sigma^2 - omega^2, r2 = K.K + J.J, r3 = J.K, and r4 is the
    coefficient max-norm of J wedge K + (omega + sigma e0123) S.  Each is a
    float, or for a batch of covariants a view of stack() of the batch shape.
    """

    _views = (("r1", 0), ("r2", 1), ("r3", 2), ("r4", 3))

    def __init__(self, r1: float, r2: float, r3: float, r4: float) -> None:
        super().__init__(np.stack(np.broadcast_arrays(r1, r2, r3, r4), axis=-1).astype(float))

    def max_abs(self) -> float:
        return _unbox(np.abs(self._array).max(axis=-1))

    def passes(self, tol: float, scale: float) -> bool:
        """Whether every residual is within tol relative to scale^2, scale
        being the covariants' component norm."""
        return _unbox(self.max_abs() <= tol * scale ** 2)


@functools.lru_cache(maxsize=None)
def _identity_forms(signature: Signature) -> np.ndarray:
    """(9, 16, 16) read-only Q whose forms x Q_k x on a covariant stack x are,
    with the signature's contraction and orientation o, r1 = J.J - sigma^2
    - o omega^2, r2 = J.J + o K.K, r3 = J.K and the six bivector coefficients
    of J wedge K + o (omega + sigma e0123) S.  Every entry is -1, 0 or +1."""
    o, eta = ORIENTATION[signature], np.array(signature.metric)
    j, k = np.arange(2, 6), np.arange(6, 10)
    q = np.zeros((9, 16, 16))
    q[0, j, j] = q[1, j, j] = q[2, j, k] = eta
    q[0, 0, 0], q[0, 1, 1], q[1, k, k] = -1.0, -o, o * eta
    # the bivector blades are 5:11; J wedge K is grade 2 of the products e^mu e^nu
    e = vector_multivector(np.eye(4), signature).coeffs
    wedge = Multivector(signature, e[:, None]) * Multivector(signature, e[None])
    q[3:, 2:6, 6:10] = wedge.coeffs[..., 5:11].real.transpose(2, 0, 1)
    s = bivector_multivector(np.eye(6), signature)
    q[3:, 1, 10:] = o * s.coeffs[:, 5:11].real.T
    q[3:, 0, 10:] = o * (pseudoscalar(signature) * s).coeffs[:, 5:11].real.T
    q.flags.writeable = False
    return q


def _identity_residuals(b: BilinearSet) -> np.ndarray:
    """(..., 4) residuals r1, r2, r3 and r4, the max-norm of the six
    bivector coefficients of _identity_forms, for a covariant batch."""
    x = b.stack()
    qx = x @ _identity_forms(b.signature).reshape(-1, 16).T
    v = np.matmul(qx.reshape(x.shape[:-1] + (9, 16)), x[..., None])[..., 0]
    v[..., 3] = np.abs(v[..., 3:]).max(axis=-1)
    return v[..., :4]


def fpk_residuals(b: BilinearSet) -> FpkResiduals:
    """Residuals of the four time-minus identities, per row of a batch."""
    if b.signature is not Signature.MINKOWSKI:
        raise ValueError("covariant identities here use the time-minus contraction")
    return FpkResiduals._of(_identity_residuals(b))


def _fpk_check(ray: BilinearSet, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The (..., 4) FPK residuals of a covariant set b on its ray, b 2^-e by
    clifford._ray, and the flags |r_k| <= tol * |ray|^2, |ray| the component
    norm: b's flags at every scale.  b's residuals are these times 4^e."""
    res = fpk_residuals(ray).stack()
    return res, np.abs(res) <= tol * np.asarray(ray.component_norm())[..., None] ** 2


@functools.lru_cache(maxsize=None)
def _aggregate_matrix(signature: Signature) -> np.ndarray:
    """(16, 16) W with aggregate coefficients stack @ W: Gamma_A weighted by
    1, -o, eta_mu, -eta_mu, eta_mu eta_nu / 2 (o the orientation)."""
    eta = np.array(signature.metric)
    w = _by_group(1.0, -ORIENTATION[signature], eta, -eta, [eta[mu] * eta[nu] / 2 for mu, nu in BIVECTOR_ORDER])
    matrix = w[:, None] * _covariant_basis(signature)
    matrix.flags.writeable = False
    return matrix


def aggregate(b: BilinearSet) -> Multivector:
    """The complex multivector sigma + J + iS + iK e0123 + o omega e0123 in
    the covariants' signature, o its orientation (+1 time-minus, -1
    Euclidean, where the stored omega is read through the reversed volume).
    A batch of covariants gives a batch of aggregates."""
    return Multivector._of(b.stack() @ _aggregate_matrix(b.signature), signature=b.signature)


def boomerang_residual(z: Multivector, sigma: float) -> float:
    """Max-norm of Z Z - 4 sigma Z relative to |Z|^2 (0 for Z = 0), per row
    of a batch of aggregates and their sigmas."""
    resid = z * z - (4.0 * sigma) * z
    return _unbox(resid.max_abs() / np.maximum(z.norm() ** 2, 1e-300))


def is_boomerang(z: Multivector, sigma: float, tol: float = 1e-9) -> bool:
    """True when Z Z = 4 sigma Z within tol relative to |Z|^2."""
    return _unbox(boomerang_residual(z, sigma) <= tol)


@functools.lru_cache(maxsize=None)
def _probe_gather(signature: Signature) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source, weight, size), read-only, with Gamma_A Z = size[A] * weight[A]
    * Z[source[A]] for each Gamma_A = c_A b_A, a blade b_A times a number:
    b_A Z is column b_A of the right multiplication matrix, one signed
    gather, and the phase c_A / |c_A| only swaps and negates parts, so the
    weights are exact; size[A] = |c_A| stays apart as a (16, 1) column."""
    blades, coeffs = _covariant_blades(signature)
    source, sign = _mul_gather(signature, True)
    size = np.abs(coeffs)[:, None]
    weight = coeffs[:, None] / size * sign[:, blades].T
    source = np.ascontiguousarray(source[:, blades].T)
    for table in (source, weight, size):
        table.flags.writeable = False
    return source, weight, size


def generalized_fpk_residuals(z: Multivector, b: BilinearSet) -> np.ndarray:
    """Five residual max-norms for the quarter-sandwich identity family:

        (1/4) Z Z                    = sigma   Z
        (1/4) Z g_mu Z               = J_mu    Z
        (1/4) Z i [g_mu, g_nu] Z     = 2 S_munu Z
        (1/4) Z i g0123 g_mu Z       = K_mu    Z
       -(1/4) Z g0123 Z              = omega   Z

    The factor 2 on the tensor line is the calibrated companion of the S
    normalization; the remaining four lines carry no free constant.  The
    result has shape (5,), or B + (5,) for a batch of shape B.
    """
    # the sixteen Gamma_A Z are one gather of Z and Z times them one product;
    # 1/4 and |c_A| follow the product, in the order the sandwich matrix
    # 1/4 L(Z) R(Z) of the multivector route applies them, so that every
    # residual is that route's bit for bit
    source, weight, size = _probe_gather(b.signature)
    gathered = weight * np.take(z.coeffs, source, axis=-1)
    sandwiches = size * (0.25 * (gathered @ np.swapaxes(left_mul_matrix(z), -1, -2)))
    expected = b.stack() * _s_weights(conventions.GENERALIZED_S_FACTOR)
    resid = np.abs(sandwiches - expected[..., :, None] * z.coeffs[..., None, :])
    # each line is the maximum over its rows of Gamma_A, regrouped as sigma, J, S, K, omega
    rows = resid.max(axis=-1)[..., [0, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15, 6, 7, 8, 9, 1]]
    return np.maximum.reduceat(rows, [0, 1, 5, 11, 15], axis=-1)


class SingularAggregateParams(Record):
    """Data of a singular aggregate J (1 + i s + i h e0123): a lightlike
    current J, a space-like s orthogonal to J, and a real helicity scalar h,
    views of one read-only (9,) array.  Components are stored index-down."""

    _views = (("J", slice(0, 4)), ("s", slice(4, 8)), ("h", 8))

    def __init__(self, J, s, h: float) -> None:
        j, s = np.array(J, dtype=float), np.array(s, dtype=float)
        if j.shape != (4,) or s.shape != (4,):
            raise ValueError("J and s must have 4 components")
        super().__init__(np.concatenate([j, s, [float(h)]]))


def build_singular_aggregate(p: SingularAggregateParams, tol: float = 1e-9) -> Multivector:
    """Assemble J (1 + i s + i h e0123) after validating the parameter
    invariants; the result squares to zero."""
    j_scale = float(np.sum(p.J ** 2))
    s_scale = float(np.sum(p.s ** 2))
    if j_scale == 0.0:
        raise ValueError("J must be nonzero")
    if abs(minkowski_square(p.J)) > tol * j_scale:
        raise ValueError("J must be lightlike: J.J = 0")
    if s_scale == 0.0 or minkowski_square(p.s) >= -tol * s_scale:
        raise ValueError("s must be space-like: s.s < 0")
    if abs(minkowski_dot(p.J, p.s)) > tol * np.sqrt(j_scale * s_scale):
        raise ValueError("s must be orthogonal to J: J.s = 0")
    jmv = vector_multivector(p.J)
    smv = vector_multivector(p.s)
    factor = scalar(1.0) + 1j * smv + (1j * p.h) * pseudoscalar()
    return jmv * factor


def default_probe_spinor(z: Multivector, rep) -> ClassicalSpinor:
    """Deterministic probe: the canonical basis spinor maximizing the
    reconstruction kernel |xi^dag g0 Z xi| (the first such one on ties), one
    per row of a batch of aggregates."""
    kernels = np.abs(np.diagonal(rep.gammas[0] @ rep_matrix(z, rep), axis1=-2, axis2=-1))
    return ClassicalSpinor(np.eye(4, dtype=np.complex128)[np.argmax(kernels, axis=-1)], rep)


def reconstruct(
    z: Multivector,
    xi: ClassicalSpinor,
    psi_ref: ClassicalSpinor | None = None,
    tol: float = 1e-12,
) -> ClassicalSpinor:
    """Recover a spinor from its aggregate: psi' = exp(-i theta) Z xi / (2 sqrt(xi^dag g0 Z xi)).

    Without a reference the phase is set to zero and the result is the
    original spinor up to a unit phase.  With psi_ref supplied the phase is
    solved so the recovery is exact.  Batches of aggregates, probes and
    references are taken row by row; rows with a degenerate probe or an
    orthogonal reference raise RowError naming them.
    """
    zm = rep_matrix(z, xi.rep)
    xc = xi.components
    zxi = np.matmul(zm, xc[..., None])[..., 0]
    kernel = np.sum(xc.conj() * (zxi @ xi.rep.gammas[0].T), axis=-1)
    scale = np.max(np.abs(zm), axis=(-2, -1)) * np.sum(np.abs(xc) ** 2, axis=-1)
    degenerate = np.abs(kernel) <= np.maximum(tol * scale, 1e-300)
    if degenerate.any():
        raise RowError(
            "degenerate probe: xi^dag g0 Z xi vanishes; choose a different test spinor",
            degenerate,
        )
    psi = zxi / (2.0 * np.sqrt(kernel))[..., None]
    if psi_ref is not None:
        ref = psi_ref.to_rep(xi.rep).components
        overlap = np.sum(psi.conj() * ref, axis=-1)
        bound = np.linalg.norm(psi, axis=-1) * np.linalg.norm(ref, axis=-1)
        orthogonal = np.abs(overlap) <= tol * np.maximum(bound, 1e-300)
        if orthogonal.any():
            raise RowError("reference spinor is orthogonal to the reconstruction ray", orthogonal)
        psi = psi * (overlap / np.abs(overlap))[..., None]
    return ClassicalSpinor(psi, xi.rep)


def euclidean_fierz_residuals(b: BilinearSet) -> np.ndarray:
    """Residuals of the four Euclidean identities J.J = sigma^2 - omega^2,
    J.J = K.K, J.K = 0 and J wedge K = (omega + sigma e0123) S, which mirror
    the time-minus ones with the opposite overall sign on the wedge.  The
    result has shape (4,), or B + (4,) for a batch of shape B.
    """
    if b.signature is not Signature.EUCLIDEAN:
        raise ValueError("expected Euclidean covariants")
    return _identity_residuals(b)
