"""The three equivalent spinor encodings and the quaternion algebra underneath.

A spinor can live as a complex 4-column (classical), as an even multivector
of the time-minus algebra packaged into two quaternions (spinor operator),
or as a 4x4 matrix with a single nonzero column inside the minimal left
ideal generated by the complexified idempotent (algebraic).  This module
holds the conversions between the three and the 2x2 quaternionic matrix
representation of the generators.

Quaternion units are realized as the spatial bivectors i = e2e3, j = e3e1,
k = e1e2, so the Hamilton product is the engine's sign table restricted to
them; that forces the Hamilton convention: ij = k and ijk = -1.

Everything takes a batch (quaternions are (..., 4) arrays), each conversion
is one signed gather or one contraction, and a row of a batch equals the
single result bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

from .clifford import (_I2, BLADES, DIRAC, PAULI, GammaRep, Multivector, Record, Signature, _fitting, _frozen,
                       _from_slots, _ldexp_quiet, _Linear, _matvec, _modulus, _numbers, _product_table, _quiet, _ray,
                       _row_norm, _unbox, idempotent_f, rep_matrix, weyl_to_dirac_matrix)

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
    "quat_matrix",
    "ideal_projector_matrix",
]

# (q1, q2) of an even multivector are these signs times the coefficients of
# these blades: q1 = s + s23 i + s31 j + s12 k in the units 1, i = e23,
# j = e31 = -e13, k = e12, and q2 = -p + s01 i + s02 j + s03 k
_OPERATOR_BLADES, _OPERATOR_SIGNS = _frozen(np.array([0, 10, 9, 8, 15, 5, 6, 7]),
                                            np.array([1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0]))


@functools.lru_cache(maxsize=None)
def _hamilton() -> np.ndarray:
    """(4, 4, 4) read-only structure tensor, u_p u_q = sum_r T[p, q, r] u_r
    for the units u, read off the Clifford sign table."""
    index, sign = _product_table(Signature.MINKOWSKI)
    blades, units = _OPERATOR_BLADES[:4], _OPERATOR_SIGNS[:4]
    t = np.zeros((4, 4, 16))
    p, q = np.indices((4, 4))
    t[p, q, index[blades][:, blades]] = np.outer(units, units) * sign[blades][:, blades]
    return _frozen(t[..., blades] * units)


_PRODUCT_UNFIT = "quaternion product does not fit in float64"


def _hamilton_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of the (..., 4) arrays a and b, broadcast."""
    return np.einsum("...p,...q,pqr->...r", a, b, _hamilton())


@functools.lru_cache(maxsize=None)
def _complex_units() -> np.ndarray:
    """(4, 2, 2) read-only images of 1, i, j, k in M(2, C): I, -i sigma_1,2,3."""
    return _frozen(np.stack([_I2] + [-1j * s for s in PAULI]))


class Quaternion(_Linear, Record):
    """Real quaternion w + x i + y j + z k, or a batch of them: w, x, y, z
    are views of one read-only (..., 4) array (floats for a single one)."""

    _views = (("w", 0), ("x", 1), ("y", 2), ("z", 3))
    _holds = "quaternion components"
    _noun = "quaternion"

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> None:
        super().__init__(np.stack(np.broadcast_arrays(*(_numbers(v, np.float64, self._holds)
                                                        for v in (w, x, y, z))), axis=-1))

    @_quiet
    def __mul__(self, other):
        """Hamilton product with a quaternion; a number (or batch-shaped array)
        scales.  Rows whose product does not fit in float64 raise RowError."""
        if isinstance(other, Quaternion):
            return Quaternion._of(self._fit(_hamilton_product(self._array, self._operand(other)), "product"))
        return self._scale(other)

    def conjugate(self) -> "Quaternion":
        return self._like(self._array * (1.0, -1.0, -1.0, -1.0))

    @_quiet
    def dot(self, other: "Quaternion") -> float:
        """Euclidean inner product; rows where it does not fit in float64 raise RowError."""
        return _unbox(_fitting((self._array * self._operand(other)).sum(axis=-1), _PRODUCT_UNFIT, axis=()))

    norm = _row_norm
    as_array = Record.stack

    def to_complex_matrix(self) -> np.ndarray:
        """Ring homomorphism into M(2, C): i, j, k map to -i*sigma_1,2,3."""
        return np.einsum("...u,uij->...ij", self._array, _complex_units())


def _quat_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product over H of the (..., 2, 2, 4) arrays a and b."""
    return _hamilton_product(a[..., :, :, None, :], b[..., None, :, :, :]).sum(axis=-3)


class QuatMatrix2(_Linear, Record):
    """2x2 matrix with quaternion entries, multiplied entrywise over H, or a
    batch of them: one read-only (..., 2, 2, 4) array, with entries[r][c]
    the Quaternion views of it."""

    _holds = "quaternion entries"
    _noun = "quaternion"
    _rank = 3

    def __init__(self, entries: tuple[tuple[Quaternion, Quaternion], tuple[Quaternion, Quaternion]]) -> None:
        q = np.broadcast_arrays(*(e.as_array() for row in entries for e in row))
        super().__init__(np.stack(q, axis=-2).reshape(q[0].shape[:-1] + (2, 2, 4)))

    @property
    def entries(self) -> tuple[tuple[Quaternion, ...], ...]:
        return tuple(tuple(Quaternion._of(self._array[..., r, c, :]) for c in range(2)) for r in range(2))

    @_quiet
    def __matmul__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        return QuatMatrix2._of(self._fit(_quat_matmul(self._array, self._operand(other)), "product"))

    scale = _Linear._scale

    def to_complex(self) -> np.ndarray:
        """4x4 complex image, each quaternion entry expanded to its 2x2 block."""
        blocks = np.einsum("...rcu,uij->...ricj", self._array, _complex_units())
        return blocks.reshape(blocks.shape[:-4] + (4, 4))


def quat_matrix(m11, m12, m21, m22) -> QuatMatrix2:
    return QuatMatrix2(((m11, m12), (m21, m22)))


@functools.lru_cache(maxsize=None)
def _blade_quat_images() -> np.ndarray:
    """(16, 2, 2, 4) read-only M(2, H) images of the blades: ordered products
    of the generator images e0 = diag(1, -1) and e_mu = [[0, u], [u, 0]] with
    u = i, j, k for mu = 1, 2, 3, each started from e0 e0 = 1."""
    gens = np.zeros((4, 2, 2, 4))
    gens[0, [0, 1], [0, 1], 0] = 1.0, -1.0
    gens[[1, 2, 3], 0, 1, [1, 2, 3]] = gens[[1, 2, 3], 1, 0, [1, 2, 3]] = 1.0
    return _frozen(np.stack([functools.reduce(_quat_matmul, gens[[0, 0, *b]]) for b in BLADES]))


def quaternion_rep_e(mu: int) -> QuatMatrix2:
    """2x2 quaternionic image of the generator e_mu of the time-minus algebra."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"generator index out of range: {mu}")
    return QuatMatrix2._of(_blade_quat_images()[1 + mu])


class ClassicalSpinor(Record):
    """Complex 4-component column spinor tagged with its gamma representation.

    components has shape (..., 4): the leading axes are a batch of spinors
    in one representation, and shape (4,) is a single spinor.  norm() and
    is_zero give a float and a bool for a single spinor and arrays of the
    batch shape otherwise.
    """

    _tags = ("rep",)
    _views = (("components", ...),)
    _holds = "spinor components"

    def __init__(self, components, rep: GammaRep = DIRAC) -> None:
        super().__init__(_numbers(components, np.complex128, self._holds), rep=rep)

    def __post_init__(self, c: np.ndarray) -> None:
        if c.shape[-1:] != (4,):
            raise ValueError(f"expected 4 components, got shape {c.shape}")

    norm = _row_norm

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
        return ClassicalSpinor(_matvec(u, self.components), rep)


class SpinorOperator(Record):
    """Even multivector packaged as the quaternion pair (q1, q2): one
    read-only (..., 8) array whose halves q1 and q2 are Quaternion views."""

    q1 = property(lambda self: Quaternion._of(self._array[..., :4]))
    q2 = property(lambda self: Quaternion._of(self._array[..., 4:]))
    _holds = "spinor operator components"

    def __init__(self, q1: Quaternion, q2: Quaternion) -> None:
        super().__init__(np.concatenate(np.broadcast_arrays(q1.as_array(), q2.as_array()), axis=-1))


class AlgebraicSpinor(Record):
    """Minimal left ideal element: a 4x4 matrix whose only nonzero column is
    the first, written in the standard (Dirac) representation; (..., 4, 4)
    for a batch."""

    _views = (("matrix", ...),)
    _holds = "ideal element entries"

    def __init__(self, matrix) -> None:
        super().__init__(_numbers(matrix, np.complex128, self._holds))

    def __post_init__(self, m: np.ndarray) -> None:
        if m.shape[-2:] != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        # on the ray of m no modulus overflows; 1 there is 2^-e, inf only for
        # an m too tiny to hold an entry above 1e-12
        ray, e = _ray(m, axis=(-2, -1))
        moduli = _modulus(ray)
        threshold = 1e-12 * np.maximum(_ldexp_quiet(1.0, -e), np.maximum.reduce(moduli, axis=(-2, -1), keepdims=True))
        if np.logical_or.reduce(moduli[..., 1:] > threshold, axis=None):
            raise ValueError("ideal element must have nonzero entries in the first column only")


# -- operator assembly ------------------------------------------------------

# stored bivector component order, indices ascending
BIVECTOR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def operator_from_coeffs(s: float, s_bivec, p: float) -> SpinorOperator:
    """Package the even coefficients (s; s01, s02, s03, s12, s13, s23; p).

    q1 collects the scalar with the spatial bivectors (s23, s31, s12) and q2
    collects the volume coefficient with the boosts: q2 = -p + s01 i + s02 j
    + s03 k.  Antisymmetry supplies s31 = -s13.  s and p may be arrays of a
    batch shape B with s_bivec of shape B + (6,).
    """
    s, b, p = (_numbers(x, np.float64, Multivector._holds) for x in (s, s_bivec, p))
    if b.shape[-1:] != (6,):
        raise ValueError("expected 6 bivector components (01, 02, 03, 12, 13, 23)")
    c = np.zeros(b.shape[:-1] + (16,))
    c[..., 0], c[..., 5:11], c[..., 15] = s, b, p
    return operator_from_even_multivector(Multivector(Signature.MINKOWSKI, c))


def operator_to_even_multivector(op: SpinorOperator) -> Multivector:
    return _from_slots(Signature.MINKOWSKI, _OPERATOR_BLADES, op.stack() * _OPERATOR_SIGNS)


def operator_from_even_multivector(mv: Multivector) -> SpinorOperator:
    """Read the even slots of a Minkowski multivector; odd slots are ignored
    (they must vanish for a genuine spinor operator)."""
    v = mv.coeffs.real[..., _OPERATOR_BLADES] * _OPERATOR_SIGNS
    return SpinorOperator._of(v)


def operator_to_quat_matrix(op: SpinorOperator) -> QuatMatrix2:
    """Homomorphic M(2, H) image: the even coefficients weighting the blade
    images.  Note: relative to the (q1, q2) packaging this image carries the
    opposite sign on the off-diagonal quaternion."""
    even = operator_to_even_multivector(op).coeffs.real
    return QuatMatrix2._of(np.einsum("...k,kabq->...abq", even, _blade_quat_images()))


# -- classical <-> operator --------------------------------------------------

# the signed reals of the standard-representation components are (q1, q2)
_CLASSICAL_SIGNS = _frozen(np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0]))


def classical_from_operator(op: SpinorOperator) -> ClassicalSpinor:
    """Component map psi1 = s + s23 i, psi2 = s13 + s12 i, psi3 = p + s10 i,
    psi4 = s02 + s30 i, with antisymmetry fixing s10 = -s01 and s30 = -s03.
    The components live in the standard representation."""
    v = op.stack() * _CLASSICAL_SIGNS
    return ClassicalSpinor(v.view(np.complex128), DIRAC)


def operator_from_classical(psi: ClassicalSpinor) -> SpinorOperator:
    v = psi.to_rep(DIRAC).components.view(np.float64) * _CLASSICAL_SIGNS
    return SpinorOperator._of(v)


# -- classical <-> algebraic -------------------------------------------------


def algebraic_from_classical(psi: ClassicalSpinor) -> AlgebraicSpinor:
    c = psi.to_rep(DIRAC).components
    m = np.zeros(c.shape + (4,), dtype=np.complex128)
    m[..., 0] = c
    return AlgebraicSpinor._of(m)


def classical_from_algebraic(xi: AlgebraicSpinor) -> ClassicalSpinor:
    return ClassicalSpinor(xi.matrix[..., 0], DIRAC)


def ideal_projector_matrix() -> np.ndarray:
    """Standard-representation image of the complexified idempotent."""
    return rep_matrix(idempotent_f(True), DIRAC)


# -- H + H packaging ---------------------------------------------------------


def ideal_element_H2(q1: Quaternion, q2: Quaternion) -> QuatMatrix2:
    """Column (q1, q2) of the quaternionic ring sum: the matrix [[q1, -q2],
    [q2, q1]] right-multiplied by the idempotent [[1, 0], [0, 0]], which is
    [[q1, 0], [q2, 0]]."""
    return quat_matrix(q1, Quaternion(), q2, Quaternion())
