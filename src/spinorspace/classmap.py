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
from .clifford import WEYL, Record, RowError, Signature
from .lounesto import ClassificationReport, classify
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
]

PARAM_NAMES = ("m11", "m12", "m13", "m14", "m22", "m41", "m42", "m43", "m44")


@dataclass(frozen=True)
class MappingParams:
    """Free entries of the mapping matrix; m12 must be nonzero since the
    dependent rows divide by it."""

    m11: complex
    m12: complex
    m13: complex
    m14: complex
    m22: complex
    m41: complex
    m42: complex
    m43: complex
    m44: complex

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.m12 == 0:
            raise ValueError("m12 must be nonzero")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}


class MappingMatrix(Record):
    _tags = ("params",)
    _views = (("matrix", ...),)

    def __init__(self, matrix, params: MappingParams) -> None:
        super().__init__(np.array(matrix, dtype=np.complex128), params=params)

    def __post_init__(self, m: np.ndarray) -> None:
        if m.shape != (4, 4):
            raise ValueError("mapping matrix must be 4x4")

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.matrix))


def build_M(p: MappingParams) -> MappingMatrix:
    """Assemble the matrix from its nine free entries; parameters whose
    matrix does not fit in float64 are a ValueError."""
    ratio = p.m22 / p.m12
    row1 = np.array([p.m11, p.m12, p.m13, p.m14], dtype=np.complex128)
    row4 = np.array([p.m41, p.m42, p.m43, p.m44], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.vstack([row1, ratio * row1, -np.conj(ratio) * row4, row4])
    if not np.isfinite(m).all():
        raise ValueError("mapping matrix does not fit in float64")
    return MappingMatrix(m, p)


def constraint_residuals(m: np.ndarray) -> tuple[float, float]:
    """Max-norms of M^dag g0 M and M^dag g1 g2 g3 M in the chiral
    representation (the sigma and omega forms of bilinears pulled back by
    M); both vanish for matrices with the dependent-row structure."""
    mat = np.asarray(m, dtype=np.complex128)
    r0, r123 = np.abs(mat.conj().T @ _forms(Signature.MINKOWSKI, WEYL)[:2] @ mat).max(axis=(-2, -1))
    return float(r0), float(r123)


def no_inverse_witness(m: MappingMatrix | np.ndarray) -> float:
    """|det M|; vanishes for every assembled mapping matrix."""
    mat = m.matrix if isinstance(m, MappingMatrix) else np.asarray(m, dtype=np.complex128)
    return float(abs(np.linalg.det(mat)))


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


def _degenerate_table() -> np.ndarray:
    """The names in _KEPT whose zero flags are set, indexed by those flags
    read as little-endian bits."""
    table = np.empty(2 ** len(_KEPT), dtype=object)
    for code in range(len(table)):
        table[code] = tuple(name for i, name in enumerate(_KEPT) if code >> i & 1)
    table.flags.writeable = False
    return table


_DEGENERATE = _degenerate_table()


def map_to_class4(
    m: MappingMatrix,
    phi: ClassicalSpinor,
    tol: float = 1e-8,
) -> MappedSpinor:
    """Apply the mapping to a regular spinor, or to a batch of them at once.

    The input must classify regular (class 1, 2, or 3) in the chiral
    representation.  The image always has sigma = omega = 0; K, S, or J
    falling below threshold is reported rather than silently accepted, since
    the flag-dipole outcome is generic but not universal.  Rows that cannot
    be mapped raise RowError naming them: a representation other than the
    chiral one, inputs of one non-regular class at a time, and inputs in
    the kernel of the mapping.
    """
    batch = phi.components.shape[:-1]
    if phi.rep is not WEYL:
        raise RowError("the mapping is written in the chiral representation", np.ones(batch, dtype=bool))
    classes = np.asarray(classify(phi, tol).lounesto_class, dtype=object)
    irregular = np.array([not cls.is_regular for cls in classes.flat], dtype=bool).reshape(batch)
    if irregular.any():
        first = classes[irregular][0]
        raise RowError(f"input must be a regular spinor (class 1-3), got {first.value}", classes == first)
    out = ClassicalSpinor(np.matmul(m.matrix, phi.components[..., None])[..., 0], WEYL)
    with np.errstate(over="ignore"):
        # an image too large to square is no kernel vector; classify rejects it
        kernel = out.norm() <= tol * phi.norm()
    if np.any(kernel):
        raise RowError(
            "image vanishes: phi lies in the kernel of the mapping (det M = 0 "
            "guarantees a nontrivial kernel)",
            kernel,
        )
    image_report = classify(out, tol)
    zero = np.stack([image_report.zero_flags[name] for name in _KEPT], axis=-1)
    code = np.packbits(zero, axis=-1, bitorder="little")[..., 0]
    return MappedSpinor(out, _DEGENERATE[code], image_report)


def hermitian_constrain(p: MappingParams, tol: float = 1e-12) -> MappingMatrix:
    """Build the mapping matrix from parameters obeying the self-adjointness
    relations: m11, m12, m22 real with m11 m22 = m12^2, m41 = m14^*,
    m13 = -m22 m14 / m12 = -m42^*, m43 real, and m44 = -m12 m43 / m22.

    Violated relations are reported together; the returned matrix satisfies
    M = M^dag to machine precision.
    """
    violations = []
    for name in ("m11", "m12", "m22"):
        value = getattr(p, name)
        if abs(value.imag) > tol * max(1.0, abs(value)):
            violations.append(f"{name} must be real")
    if abs(p.m11 * p.m22 - p.m12 ** 2) > tol * max(1.0, abs(p.m12) ** 2):
        violations.append("m11 m22 must equal m12^2")
    if abs(p.m41 - np.conj(p.m14)) > tol * max(1.0, abs(p.m14)):
        violations.append("m41 must equal conj(m14)")
    expected_m13 = -p.m22 * p.m14 / p.m12
    if abs(p.m13 - expected_m13) > tol * max(1.0, abs(expected_m13)):
        violations.append("m13 must equal -m22 m14 / m12")
    if abs(p.m42 + np.conj(p.m13)) > tol * max(1.0, abs(p.m13)):
        violations.append("m42 must equal -conj(m13)")
    if abs(p.m43.imag) > tol * max(1.0, abs(p.m43)):
        violations.append("m43 must be real")
    expected_m44 = -p.m12 * p.m43 / p.m22
    if abs(p.m44 - expected_m44) > tol * max(1.0, abs(expected_m44)):
        violations.append("m44 must equal -m12 m43 / m22")
    if violations:
        raise ValueError("self-adjointness relations violated: " + "; ".join(violations))
    m = build_M(p)
    herm = float(np.max(np.abs(m.matrix - m.matrix.conj().T)))
    if herm > 1e-12 * max(1.0, m.frobenius()):
        raise ValueError(f"assembled matrix is not self-adjoint (residual {herm:.3e})")
    return m


def random_params(rng: np.random.Generator) -> MappingParams:
    """Draw generic parameters, redrawing m12 until |m12| >= 0.2."""
    values = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    while abs(values[1]) < 0.2:
        values[1] = complex(rng.standard_normal(), rng.standard_normal())
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
    m14 = complex(rng.standard_normal(), rng.standard_normal())
    m41 = np.conj(m14)
    m13 = -m22 * m14 / m12
    m42 = -np.conj(m13)
    m43 = rng.standard_normal()
    m44 = -m12 * m43 / m22
    return MappingParams(m11, m12, m13, m14, m22, m41, m42, m43, m44)
