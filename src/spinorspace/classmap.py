"""The singular linear map sending regular spinors to flag-dipole spinors.

Nine free complex parameters determine a 4x4 matrix whose second row is
proportional to the first and whose third row is proportional to the fourth,
with the cross ratio conjugated and negated:

    row2 = (m22 / m12) row1,        row3 = -(m22 / m12)^* row4.

This structure makes M^dag g0 M and M^dag g1 g2 g3 M vanish identically in
the chiral representation, so every image spinor has sigma = omega = 0, and
it forces det M = 0, so no inverse map exists.  Generic images carry the
full flag-dipole pattern (J, K, S all nonzero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinears import _forms
from .clifford import (WEYL, Record, RowError, Signature, _fitting, _ldexp_quiet, _matmul, _matvec, _modulus, _numbers,
                       _quiet, _row_norm, _unbox)
from .lounesto import _PATTERN_BITS, _TINY, DEFAULT_TOL, ClassificationReport, _code_table, _complex_vector, classify
from .spinor_forms import ClassicalSpinor

__all__ = [
    "MappingParams",
    "MappingMatrix",
    "MappedSpinor",
    "build_M",
    "constraint_residuals",
    "map_to_class4",
    "hermitian_constrain",
    "no_inverse_witness",
    "random_params",
    "random_hermitian_params",
]

PARAM_NAMES = ("m11", "m12", "m13", "m14", "m22", "m41", "m42", "m43", "m44")


class MappingParams(Record):
    """Free entries of the mapping matrix, or a (..., 9) batch of them; rows
    with m12 = 0 raise RowError, since the dependent rows divide by it."""

    _views = tuple((name, i) for i, name in enumerate(PARAM_NAMES))
    _holds = "mapping parameters"

    def __init__(self, m11, m12, m13, m14, m22, m41, m42, m43, m44) -> None:
        super().__init__(np.stack(np.broadcast_arrays(*(_numbers(m, np.complex128, self._holds)
                                                        for m in (m11, m12, m13, m14, m22, m41, m42, m43, m44))), -1))

    def __post_init__(self, p: np.ndarray) -> None:
        if not p[..., 1].all():
            raise RowError("m12 must be nonzero", p[..., 1] == 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}


class MappingMatrix(Record):
    _tags = ("params",)
    _views = (("matrix", ...),)
    _holds = "mapping matrix entries"

    def __init__(self, matrix, params: MappingParams) -> None:
        super().__init__(_numbers(matrix, np.complex128, self._holds), params=params)

    def __post_init__(self, m: np.ndarray) -> None:
        if m.shape[-2:] != (4, 4):
            raise ValueError("mapping matrix must be 4x4")

    def frobenius(self) -> float:
        """Frobenius norm of each matrix: the row norm over both matrix axes."""
        return _row_norm(self, (-2, -1))


@_quiet
def build_M(p: MappingParams) -> MappingMatrix:
    """Assemble the matrix from its nine free entries, or a batch of matrices
    at once; rows whose matrix does not fit in float64 raise RowError."""
    v = p.stack()
    # divided as Python complexes: numpy's complex division differs from CPython's in the last bit
    ratio = (v[..., 4:5].astype(object) / v[..., 1:2].astype(object)).astype(complex)
    row1, row4 = v[..., :4], v[..., 5:]
    m = np.stack([row1, ratio * row1, -np.conj(ratio) * row4, row4], axis=-2)
    return MappingMatrix(_fitting(m, "mapping matrix does not fit in float64", (-2, -1)), p)


@_quiet
def constraint_residuals(m: np.ndarray) -> tuple[float, float]:
    """Max-norms of M^dag g0 M and M^dag g1 g2 g3 M in the chiral
    representation (the sigma and omega forms of bilinears pulled back by
    M), per matrix of a (..., 4, 4) batch; both vanish for matrices with the
    dependent-row structure."""
    mat = _numbers(m, np.complex128, MappingMatrix._holds)[..., None, :, :]
    r = np.maximum.reduce(_modulus(_matmul(_matmul(mat.conj().mT, _forms(Signature.MINKOWSKI, WEYL)[:2]), mat)),
                          axis=(-2, -1))
    return _unbox(r[..., 0]), _unbox(r[..., 1])


@_quiet
def no_inverse_witness(m: np.ndarray) -> float:
    """|det M| per matrix of a (..., 4, 4) batch; vanishes for every assembled
    mapping matrix.  The modulus is np.hypot of the parts, as Python's abs
    of a complex takes it, so one matrix and each batch row agree bit for bit."""
    det = np.linalg.det(_numbers(m, np.complex128, MappingMatrix._holds))
    return _unbox(np.hypot(det.real, det.imag))


@dataclass(frozen=True)
class MappedSpinor:
    """Image spinor, its classification report, and a degeneracy report:
    covariants that fell below the classification threshold even though a
    generic image keeps them.

    For a batch of shape B, degenerate is an object array of shape B
    holding one such tuple per image.
    """

    spinor: ClassicalSpinor
    degenerate: tuple[str, ...]
    report: ClassificationReport


_KEPT = ("J", "K", "S")
# the names in _KEPT whose zero flags are set, indexed by those flags
_DEGENERATE = _code_table(_KEPT, lambda zero: tuple(name for name in _KEPT if zero[name]))


def map_to_class4(
    m: MappingMatrix,
    phi: ClassicalSpinor,
    tol: float = DEFAULT_TOL,
) -> MappedSpinor:
    """Apply the mapping to a regular spinor, or to a batch of them at once.

    The input must classify regular (class 1, 2, or 3) in the chiral
    representation.  The image always has sigma = omega = 0; K, S, or J
    falling below threshold is reported rather than silently accepted, since
    the flag-dipole outcome is generic but not universal.  Rows that cannot
    be mapped raise RowError naming them: a representation other than the
    chiral one, inputs of one non-regular class at a time, inputs in
    the kernel of the mapping (|M phi| <= tol |phi| times M's largest part),
    images whose largest part is not a normal float64, and images whose
    covariants do not fit in float64 (an input whose own covariants do not
    fit keeps classify's message).
    """
    batch = phi.components.shape[:-1]
    if phi.rep is not WEYL:
        raise RowError("the mapping is written in the chiral representation", np.ones(batch, dtype=bool))
    classes = np.asarray(classify(phi, tol).lounesto_class, dtype=object)
    irregular = np.array([not cls.is_regular for cls in classes.flat], dtype=bool).reshape(batch)
    if irregular.any():
        first = classes[irregular][0]
        raise RowError(f"input must be a regular spinor (class 1-3), got {first.value}", classes == first)
    ray, e_phi = phi._on_ray()
    m_ray, e_m = m._on_ray((-2, -1))
    ray_image = _matvec(m_ray.matrix, ray.components)
    # phi lies in the kernel where its ray does under M's ray, which judges it relative
    # to M's largest part; both rays are of order 1, so no norm underflows or overflows
    kernel = ray._like(ray_image).norm() <= tol * ray.norm()
    if np.any(kernel):
        raise RowError(
            "image vanishes: phi lies in the kernel of the mapping (det M = 0 "
            "guarantees a nontrivial kernel)",
            kernel,
        )
    # M phi is the rays' image times 2^(e_phi + e_M), exact wherever its largest part is a normal float
    parts = _ldexp_quiet(ray_image.view(np.float64), e_phi + e_m[..., 0])
    largest = np.maximum.reduce(_modulus(parts), axis=-1)
    outside = ~((_TINY <= largest) & (largest < np.inf))
    if np.any(outside):
        raise RowError("image leaves float64's normal range", outside)
    out = ClassicalSpinor(parts.view(complex), WEYL)
    try:
        image_report = classify(out, tol)
    except RowError as err:
        # the image is nonzero and tol passed the first classify: only its covariants can fail
        raise RowError("image covariants do not fit in float64", err.rows) from None
    zero = np.stack([image_report.zero_flags[name] for name in _KEPT], axis=-1)
    return MappedSpinor(out, _DEGENERATE[_matmul(zero, _PATTERN_BITS[:len(_KEPT)])], image_report)


@_quiet
def hermitian_constrain(p: MappingParams, tol: float = 1e-12) -> MappingMatrix:
    """Build the mapping matrix from one parameter set obeying the
    self-adjointness relations: m11, m12, m22 real with m11 m22 = m12^2,
    m41 = m14^*, m13 = -m22 m14 / m12 = -m42^*, m43 real, and
    m44 = -m12 m43 / m22.

    Violated relations are reported together, a relation whose gap or
    expected size does not fit in float64 among them; the returned matrix
    satisfies M = M^dag to machine precision.
    """
    if p.stack().ndim != 1:
        raise ValueError(f"hermitian_constrain takes one parameter set, got a batch of shape {p.stack().shape[:-1]}")
    # numpy scalars, whose overflow is quiet here, where Python's complex ** and abs raise
    m11, m12, m13, m14, m22, m41, m42, m43, m44 = p.stack()
    expected_m13, expected_m44 = -m22 * m14 / m12, -m12 * m43 / m22
    relations = [
        ("m11 must be real", m11.imag, abs(m11)),
        ("m12 must be real", m12.imag, abs(m12)),
        ("m22 must be real", m22.imag, abs(m22)),
        ("m11 m22 must equal m12^2", m11 * m22 - m12 ** 2, abs(m12) ** 2),
        ("m41 must equal conj(m14)", m41 - np.conj(m14), abs(m14)),
        ("m13 must equal -m22 m14 / m12", m13 - expected_m13, abs(expected_m13)),
        ("m42 must equal -conj(m13)", m42 + np.conj(m13), abs(m13)),
        ("m43 must be real", m43.imag, abs(m43)),
        ("m44 must equal -m12 m43 / m22", m44 - expected_m44, abs(expected_m44)),
    ]
    violations = [violation for violation, gap, size in relations
                  if not (size < np.inf and abs(gap) <= tol * max(1.0, size))]
    if violations:
        raise ValueError("self-adjointness relations violated: " + "; ".join(violations))
    m = build_M(p)
    herm = float(np.maximum.reduce(_modulus(m.matrix - m.matrix.conj().T), axis=None))
    if herm > 1e-12 * max(1.0, m.frobenius()):
        raise ValueError(f"assembled matrix is not self-adjoint (residual {herm:.3e})")
    return m


def random_params(rng: np.random.Generator) -> MappingParams:
    """Draw generic parameters, redrawing m12 until |m12| >= 0.2."""
    values = _complex_vector(rng, 9)
    while abs(values[1]) < 0.2:
        values[1] = _complex_vector(rng, 1).item()
    return MappingParams(*values)


def random_hermitian_params(rng: np.random.Generator) -> MappingParams:
    """Draw parameters satisfying every self-adjointness relation."""
    m11 = rng.standard_normal()
    while abs(m11) < 0.2:
        m11 = rng.standard_normal()
    m12 = rng.standard_normal()
    while abs(m12) < 0.2:
        m12 = rng.standard_normal()
    m22 = m12 ** 2 / m11
    # a Python complex, divided below as CPython divides, not in numpy's last bit
    m14 = _complex_vector(rng, 1).item()
    m41 = np.conj(m14)
    m13 = -m22 * m14 / m12
    m42 = -np.conj(m13)
    m43 = rng.standard_normal()
    m44 = -m12 * m43 / m22
    return MappingParams(m11, m12, m13, m14, m22, m41, m42, m43, m44)
