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
from .bilinears import (_GROUP_STARTS, ORIENTATION, BilinearSet, _by_group, _covariant_basis, _covariant_blades,
                        _s_weights, minkowski_dot, minkowski_square)
from .clifford import (Multivector, Record, RowError, Signature, _from_slots, _frozen, _mul_gather, _numbers, _ray,
                       _row_max_abs, _unbox, left_mul_matrix, pseudoscalar, rep_matrix, scalar)
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
    "euclidean_fierz_residuals",
]


def vector_multivector(components, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    """Grade-1 multivector with index-down (..., 4) components, raised with eta_mu."""
    return _from_slots(signature, slice(1, 5), np.asarray(components, dtype=np.complex128) * signature.metric)


def bivector_multivector(components, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    """Grade-2 multivector with index-down (..., 6) components in (01, 02, 03,
    12, 13, 23) order, raised with eta_mu eta_nu."""
    eta = signature.metric
    raising = [eta[mu] * eta[nu] for mu, nu in BIVECTOR_ORDER]
    return _from_slots(signature, slice(5, 11), np.asarray(components, dtype=np.complex128) * raising)


class FpkResiduals(Record):
    """Deviations from the four quadratic covariant identities.

    r1 = J.J - sigma^2 - omega^2, r2 = K.K + J.J, r3 = J.K, and r4 is the
    coefficient max-norm of J wedge K + (omega + sigma e0123) S.  Each is a
    float, or for a batch of covariants a view of stack() of the batch shape.
    """

    _views = (("r1", 0), ("r2", 1), ("r3", 2), ("r4", 3))
    _holds = "residuals"

    def __init__(self, r1: float, r2: float, r3: float, r4: float) -> None:
        super().__init__(np.stack(np.broadcast_arrays(*(_numbers(r, np.float64, self._holds)
                                                        for r in (r1, r2, r3, r4))), axis=-1))

    max_abs = _row_max_abs


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
    return _frozen(q)


@functools.lru_cache(maxsize=None)
def _identity_columns(signature: Signature) -> np.ndarray:
    """(16, 144) read-only view of _identity_forms with x @ it holding
    every Q_k x, nine rows of 16 in turn."""
    return _identity_forms(signature).reshape(-1, 16).T


def _identity_residuals(b: BilinearSet) -> np.ndarray:
    """(..., 4) residuals r1, r2, r3 and r4, the max-norm of the six
    bivector coefficients of _identity_forms, for a covariant batch."""
    x = b.stack()
    qx = x @ _identity_columns(b.signature)
    v = np.matmul(qx.reshape(x.shape[:-1] + (9, 16)), x[..., None])[..., 0]
    v[..., 3] = np.maximum.reduce(np.abs(v[..., 3:]), axis=-1)
    return v[..., :4]


def fpk_residuals(b: BilinearSet) -> FpkResiduals:
    """Residuals of the four time-minus identities, per row of a batch."""
    if b.signature is not Signature.MINKOWSKI:
        raise ValueError("covariant identities here use the time-minus contraction")
    return FpkResiduals._of(_identity_residuals(b))


def _fpk_check(ray: BilinearSet, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The (..., 4) FPK residuals of covariants ray of order 1 and the flags
    |r_k| <= tol * |ray|^2, |ray| the component norm.  For (ray, e) =
    b._on_ray() the flags are b's at every scale, and b's residuals are
    these residuals times 4^e."""
    res = fpk_residuals(ray).stack()
    return res, np.abs(res) <= tol * np.asarray(ray.component_norm())[..., None] ** 2


@functools.lru_cache(maxsize=None)
def _aggregate_matrix(signature: Signature) -> np.ndarray:
    """(16, 16) W with aggregate coefficients stack @ W: Gamma_A weighted by
    1, -o, eta_mu, -eta_mu, eta_mu eta_nu / 2 (o the orientation)."""
    eta = np.array(signature.metric)
    w = _by_group(1.0, -ORIENTATION[signature], eta, -eta, [eta[mu] * eta[nu] / 2 for mu, nu in BIVECTOR_ORDER])
    return _frozen(w[:, None] * _covariant_basis(signature))


def aggregate(b: BilinearSet) -> Multivector:
    """The complex multivector sigma + J + iS + iK e0123 + o omega e0123 in
    the covariants' signature, o its orientation (+1 time-minus, -1
    Euclidean, where the stored omega is read through the reversed volume).
    A batch of covariants gives a batch of aggregates."""
    return Multivector._of(b.stack() @ _aggregate_matrix(b.signature), signature=b.signature)


def _even_ray(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ray, k): the complex (..., n) values times 4^-k, k the exponent of
    clifford._ray halved and rounded down, so that the largest part of each
    row lies in [0.5, 2); a spinor whose square the values are scales by the
    exact 2^-k."""
    ray, e = _ray(values)
    return np.ldexp(ray.view(np.float64), e & 1).view(values.dtype), e >> 1


def boomerang_residual(z: Multivector, sigma: float) -> float:
    """Max-norm of Z Z - 4 sigma Z relative to |Z|^2 (0 for Z = 0), per row
    of a batch of aggregates and their sigmas, computed with Z and sigma
    scaled by Z's 4^-k (_even_ray), so alike at every scale."""
    coeffs, k = _even_ray(z.coeffs)
    ray = z._like(coeffs)
    resid = ray * ray - (4.0 * np.ldexp(sigma, -2 * k[..., 0])) * ray
    # |Z|^2 is at least 1/4 on the ray: the floor only makes 0/0 read 0 for Z = 0
    return _unbox(resid.max_abs() / np.maximum(ray.norm() ** 2, 0.25))


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
    return _frozen(np.ascontiguousarray(source[:, blades].T), weight, size)


# where each covariant's rows of Gamma_A Z start in a flat (256,) residual,
# and the group of each identity line
_ROW_GROUPS = _frozen(16 * _GROUP_STARTS)
_LINE_GROUPS = _frozen(np.array([0, 2, 4, 3, 1]))


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
    gathered = weight * z.coeffs.take(source, axis=-1)
    sandwiches = size * (0.25 * (gathered @ left_mul_matrix(z).swapaxes(-1, -2)))
    expected = b.stack() * _s_weights(conventions.GENERALIZED_S_FACTOR)
    resid = np.abs(sandwiches - expected[..., :, None] * z.coeffs[..., None, :])
    # each line is the maximum over its rows of Gamma_A, one group of 16-wide
    # rows per covariant, read in the line order sigma, J, S, K, omega
    groups = np.maximum.reduceat(resid.reshape(resid.shape[:-2] + (256,)), _ROW_GROUPS, axis=-1)
    return groups[..., _LINE_GROUPS]


class SingularAggregateParams(Record):
    """Data of a singular aggregate J (1 + i s + i h e0123): a lightlike
    current J, a space-like s orthogonal to J, and a real helicity scalar h,
    views of one read-only (9,) array.  Components are stored index-down."""

    _views = (("J", slice(0, 4)), ("s", slice(4, 8)), ("h", 8))
    _holds = "aggregate parameters"

    def __init__(self, J, s, h: float) -> None:
        j, s, h = (_numbers(field, np.float64, self._holds) for field in (J, s, h))
        if j.shape != (4,) or s.shape != (4,):
            raise ValueError("J and s must have 4 components")
        if h.shape != ():
            raise ValueError("h must be one number")
        super().__init__(np.concatenate([j, s, [h]]))


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

    Z, xi and psi_ref are each scaled by an even power of two (_even_ray),
    and the spinor rebuilt from Z 4^-k is scaled back by the exact 2^k, so
    the result and both tests are alike at every scale.
    """
    coeffs, k = _even_ray(z.coeffs)
    zm = rep_matrix(z._like(coeffs), xi.rep)
    xc, _ = _even_ray(xi.components)
    zxi = np.matmul(zm, xc[..., None])[..., 0]
    kernel = np.sum(xc.conj() * (zxi @ xi.rep.gammas[0].T), axis=-1)
    scale = np.max(np.abs(zm), axis=(-2, -1)) * xi._like(xc).norm() ** 2
    degenerate = np.abs(kernel) <= tol * scale
    if degenerate.any():
        raise RowError(
            "degenerate probe: xi^dag g0 Z xi vanishes; choose a different test spinor",
            degenerate,
        )
    psi = zxi / (2.0 * np.sqrt(kernel))[..., None]
    if psi_ref is not None:
        ref, _ = _even_ray(psi_ref.to_rep(xi.rep).components)
        overlap = np.sum(psi.conj() * ref, axis=-1)
        bound = xi._like(psi).norm() * xi._like(ref).norm()
        orthogonal = np.abs(overlap) <= tol * bound
        if orthogonal.any():
            raise RowError("reference spinor is orthogonal to the reconstruction ray", orthogonal)
        psi = psi * (overlap / np.abs(overlap))[..., None]
    return ClassicalSpinor(np.ldexp(psi.view(np.float64), k).view(np.complex128), xi.rep)


def euclidean_fierz_residuals(b: BilinearSet) -> np.ndarray:
    """Residuals of the four Euclidean identities J.J = sigma^2 - omega^2,
    J.J = K.K, J.K = 0 and J wedge K = (omega + sigma e0123) S, which mirror
    the time-minus ones with the opposite overall sign on the wedge.  The
    result has shape (4,), or B + (4,) for a batch of shape B.
    """
    if b.signature is not Signature.EUCLIDEAN:
        raise ValueError("expected Euclidean covariants")
    return _identity_residuals(b)
