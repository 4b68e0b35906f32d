"""The three equivalent spinor encodings and the quaternion algebra underneath.

A spinor can live as a complex 4-column (classical), as an even multivector
of the time-minus algebra packaged into two quaternions (spinor operator),
or as a 4x4 matrix with a single nonzero column inside the minimal left
ideal generated by the complexified idempotent (algebraic).  This module
holds the conversions between the three and the 2x2 quaternionic matrix
representation of the generators.

Quaternion units are realized as the spatial bivectors i = e2e3, j = e3e1,
k = e1e2.  The geometric product forces the Hamilton convention: ij = k and
ijk = -1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .clifford import (
    BLADE_INDEX,
    DIRAC,
    GammaRep,
    Multivector,
    Signature,
    _product_table,
    _unbox,
    from_blade_dict,
    idempotent_f,
    rep_matrix,
    weyl_to_dirac_matrix,
)

__all__ = [
    "Quaternion",
    "QuatMatrix2",
    "ClassicalSpinor",
    "SpinorOperator",
    "AlgebraicSpinor",
    "quaternion_rep_e",
    "operator_from_coeffs",
    "operator_from_even_multivector",
    "operator_to_even_multivector",
    "classical_from_operator",
    "operator_from_classical",
    "algebraic_from_classical",
    "classical_from_algebraic",
    "ideal_element_H2",
    "operator_to_quat_matrix",
]


@functools.lru_cache(maxsize=None)
def _hamilton_terms() -> tuple:
    """For each unit u_r of 1, i, j, k, the (p, q, sign) with u_p u_q = sign u_r,
    read off the Clifford sign table restricted to 1, i = e23, j = e31 = -e13
    and k = e12."""
    index, sign = _product_table(Signature.MINKOWSKI)
    blades = [BLADE_INDEX[b] for b in ((), (2, 3), (1, 3), (1, 2))]
    units = (1.0, 1.0, -1.0, 1.0)
    terms = ([], [], [], [])
    for p, bp in enumerate(blades):
        for q, bq in enumerate(blades):
            r = blades.index(index[bp, bq])
            terms[r].append((p, q, float(units[p] * units[q] * units[r] * sign[bp, bq])))
    return tuple(map(tuple, terms))


@dataclass(frozen=True)
class Quaternion:
    """Real quaternion w + x i + y j + z k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        a, b = (self.w, self.x, self.y, self.z), (other.w, other.x, other.y, other.z)
        return Quaternion(*(sum(sign * a[p] * b[q] for p, q, sign in terms) for terms in _hamilton_terms()))

    def __rmul__(self, other: float) -> "Quaternion":
        return self * other

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def dot(self, other: "Quaternion") -> float:
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)

    def norm(self) -> float:
        return float(np.sqrt(self.dot(self)))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def to_complex_matrix(self) -> np.ndarray:
        """Ring homomorphism into M(2, C): i, j, k map to -i*sigma_1,2,3."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [[w - 1j * z, -1j * x - y],
             [-1j * x + y, w + 1j * z]],
            dtype=np.complex128,
        )

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.as_array() - other.as_array())) <= tol)


_Q0 = Quaternion()
_Q1 = Quaternion(1.0)
_QI = Quaternion(0.0, 1.0, 0.0, 0.0)
_QJ = Quaternion(0.0, 0.0, 1.0, 0.0)
_QK = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class QuatMatrix2:
    """2x2 matrix with quaternion entries, multiplied entrywise over H."""

    entries: tuple[tuple[Quaternion, Quaternion], tuple[Quaternion, Quaternion]]

    def __matmul__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        a, b = self.entries, other.entries
        rows = []
        for r in range(2):
            row = []
            for c in range(2):
                row.append(a[r][0] * b[0][c] + a[r][1] * b[1][c])
            rows.append(tuple(row))
        return QuatMatrix2((rows[0], rows[1]))

    def __add__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        a, b = self.entries, other.entries
        return QuatMatrix2(tuple(
            tuple(a[r][c] + b[r][c] for c in range(2)) for r in range(2)
        ))

    def scale(self, factor: float) -> "QuatMatrix2":
        return QuatMatrix2(tuple(
            tuple(self.entries[r][c] * factor for c in range(2)) for r in range(2)
        ))

    def to_complex(self) -> np.ndarray:
        """4x4 complex image, each quaternion entry expanded to its 2x2 block."""
        blocks = [[self.entries[r][c].to_complex_matrix() for c in range(2)]
                  for r in range(2)]
        return np.block(blocks)

    def isclose(self, other: "QuatMatrix2", tol: float = 1e-12) -> bool:
        return all(
            self.entries[r][c].isclose(other.entries[r][c], tol)
            for r in range(2) for c in range(2)
        )


def quat_matrix(m11, m12, m21, m22) -> QuatMatrix2:
    return QuatMatrix2(((m11, m12), (m21, m22)))


def quaternion_rep_e(mu: int) -> QuatMatrix2:
    """2x2 quaternionic image of the generator e_mu of the time-minus algebra."""
    if mu == 0:
        return quat_matrix(_Q1, _Q0, _Q0, -_Q1)
    if mu in (1, 2, 3):
        u = (_QI, _QJ, _QK)[mu - 1]
        return quat_matrix(_Q0, u, u, _Q0)
    raise ValueError(f"generator index out of range: {mu}")


@dataclass(frozen=True)
class ClassicalSpinor:
    """Complex 4-component column spinor tagged with its gamma representation.

    components has shape (..., 4): the leading axes are a batch of spinors
    in one representation, and shape (4,) is a single spinor.  norm() and
    is_zero give a float and a bool for a single spinor and arrays of the
    batch shape otherwise.
    """

    components: np.ndarray
    rep: GammaRep = DIRAC

    def __post_init__(self) -> None:
        c = np.array(self.components, dtype=np.complex128)
        if c.shape[-1:] != (4,):
            raise ValueError(f"expected 4 components, got shape {c.shape}")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("spinor components must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "components", c)

    def norm(self) -> float:
        c = self.components
        return _unbox(np.sqrt((c.conj() * c).real.sum(axis=-1)))

    @property
    def is_zero(self) -> bool:
        return _unbox((self.components == 0).all(axis=-1))

    def to_rep(self, rep: GammaRep) -> "ClassicalSpinor":
        if rep is self.rep:
            return self
        u = weyl_to_dirac_matrix()
        if self.rep.tag == "dirac" and rep.tag == "weyl":
            u = u.conj().T
        elif not (self.rep.tag == "weyl" and rep.tag == "dirac"):
            raise ValueError(f"no change of basis from {self.rep.tag} to {rep.tag}")
        return ClassicalSpinor(np.matmul(u, self.components[..., None])[..., 0], rep)


@dataclass(frozen=True)
class SpinorOperator:
    """Even multivector packaged as the quaternion pair (q1, q2)."""

    q1: Quaternion
    q2: Quaternion


@dataclass(frozen=True)
class AlgebraicSpinor:
    """Minimal left ideal element: a 4x4 matrix whose only nonzero column is
    the first, written in the standard (Dirac) representation."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m[:, 1:])) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("ideal element must have nonzero entries in the first column only")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


# -- operator assembly ------------------------------------------------------

# stored bivector component order, indices ascending
BIVECTOR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def operator_from_coeffs(s: float, s_bivec, p: float) -> SpinorOperator:
    """Package the even coefficients (s; s01, s02, s03, s12, s13, s23; p).

    q1 collects the scalar with the spatial bivectors (s23, s31, s12) and q2
    collects the volume coefficient with the boosts: q2 = -p + s01 i + s02 j
    + s03 k.  Antisymmetry supplies s31 = -s13.
    """
    b = np.asarray(s_bivec, dtype=float)
    if b.shape != (6,):
        raise ValueError("expected 6 bivector components (01, 02, 03, 12, 13, 23)")
    s01, s02, s03, s12, s13, s23 = b
    q1 = Quaternion(float(s), s23, -s13, s12)
    q2 = Quaternion(-float(p), s01, s02, s03)
    return SpinorOperator(q1, q2)


def operator_coeffs(op: SpinorOperator) -> tuple[float, np.ndarray, float]:
    """Inverse of operator_from_coeffs."""
    q1, q2 = op.q1, op.q2
    s_bivec = np.array([q2.x, q2.y, q2.z, q1.z, -q1.y, q1.x])
    return q1.w, s_bivec, -q2.w


def operator_to_even_multivector(op: SpinorOperator) -> Multivector:
    s, b, p = operator_coeffs(op)
    data: dict[tuple[int, ...], complex] = {(): s, (0, 1, 2, 3): p}
    for pair, value in zip(BIVECTOR_ORDER, b):
        data[pair] = value
    return from_blade_dict(data, Signature.MINKOWSKI)


def operator_from_even_multivector(mv: Multivector) -> SpinorOperator:
    """Read the even slots of a Minkowski multivector; odd slots are ignored
    (they must vanish for a genuine spinor operator)."""
    c = mv.coeffs
    s = float(c[0].real)
    b = np.array([c[5].real, c[6].real, c[7].real,
                  c[8].real, c[9].real, c[10].real])
    p = float(c[15].real)
    return operator_from_coeffs(s, b, p)


def operator_to_quat_matrix(op: SpinorOperator) -> QuatMatrix2:
    """Homomorphic M(2, H) image, assembled from products of the generator
    images.  Note: relative to the (q1, q2) packaging this image carries the
    opposite sign on the off-diagonal quaternion."""
    s, b, p = operator_coeffs(op)
    one = quat_matrix(_Q1, _Q0, _Q0, _Q1)
    acc = one.scale(s)
    for (mu, nu), value in zip(BIVECTOR_ORDER, b):
        if value != 0.0:
            acc = acc + (quaternion_rep_e(mu) @ quaternion_rep_e(nu)).scale(value)
    if p != 0.0:
        vol = quaternion_rep_e(0) @ quaternion_rep_e(1) @ quaternion_rep_e(2) @ quaternion_rep_e(3)
        acc = acc + vol.scale(p)
    return acc


# -- classical <-> operator --------------------------------------------------


def classical_from_operator(op: SpinorOperator) -> ClassicalSpinor:
    """Component map psi1 = s + s23 i, psi2 = s13 + s12 i, psi3 = p + s10 i,
    psi4 = s02 + s30 i, with antisymmetry fixing s10 = -s01 and s30 = -s03.
    The components live in the standard representation."""
    q1, q2 = op.q1, op.q2
    psi = np.array(
        [
            q1.w + 1j * q1.x,
            -q1.y + 1j * q1.z,
            -q2.w - 1j * q2.x,
            q2.y - 1j * q2.z,
        ],
        dtype=np.complex128,
    )
    return ClassicalSpinor(psi, DIRAC)


def operator_from_classical(psi: ClassicalSpinor) -> SpinorOperator:
    p1, p2, p3, p4 = psi.to_rep(DIRAC).components
    q1 = Quaternion(p1.real, p1.imag, -p2.real, p2.imag)
    q2 = Quaternion(-p3.real, -p3.imag, p4.real, -p4.imag)
    return SpinorOperator(q1, q2)


# -- classical <-> algebraic -------------------------------------------------


def algebraic_from_classical(psi: ClassicalSpinor) -> AlgebraicSpinor:
    m = np.zeros((4, 4), dtype=np.complex128)
    m[:, 0] = psi.to_rep(DIRAC).components
    return AlgebraicSpinor(m)


def classical_from_algebraic(xi: AlgebraicSpinor) -> ClassicalSpinor:
    return ClassicalSpinor(xi.matrix[:, 0].copy(), DIRAC)


def ideal_projector_matrix() -> np.ndarray:
    """Standard-representation image of the complexified idempotent."""
    return rep_matrix(idempotent_f(True), DIRAC)


# -- H + H packaging ---------------------------------------------------------


def ideal_element_H2(q1: Quaternion, q2: Quaternion) -> QuatMatrix2:
    """Column (q1, q2) of the quaternionic ring sum, realized as the matrix
    [[q1, -q2], [q2, q1]] right-multiplied by the idempotent [[1, 0], [0, 0]]."""
    template = quat_matrix(q1, -q2, q2, q1)
    f = quat_matrix(_Q1, _Q0, _Q0, _Q0)
    return template @ f
