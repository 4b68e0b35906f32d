"""Clifford algebra engine for the time-minus Minkowski signature and its
Euclidean counterpart.

A multivector carries 16 complex coefficients over a fixed blade basis of a
four dimensional quadratic space.  Blades are ordered by grade, then
lexicographically, with generator indices ascending inside each blade:

    1 | e0 e1 e2 e3 | e01 e02 e03 e12 e13 e23 | e012 e013 e023 e123 | e0123

The geometric product is driven by a precomputed (16, 16) product table per
signature: each blade pair maps to one output blade and a sign.  The sign
counts transpositions and shared generators, so algebraic identities hold to
machine precision on top of exact integer signs.

Every operation takes a leading batch shape: coefficients are (..., 16)
arrays and a single multivector is the batch of shape ().  Reductions such
as norm() give a float for shape () and an array of the batch shape
otherwise.  Batched rows are computed with the same arithmetic as single
ones, so a row of a batch equals the single result bit for bit.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLADES",
    "BLADE_INDEX",
    "BLADE_NAMES",
    "BLADE_GRADES",
    "Signature",
    "Multivector",
    "GammaRep",
    "WEYL",
    "DIRAC",
    "scalar",
    "zero",
    "basis_vector",
    "blade",
    "pseudoscalar",
    "from_blade_dict",
    "geometric_product",
    "reversion",
    "grade_projection",
    "adjoint_dagger",
    "rep_matrix",
    "idempotent_f",
    "weyl_to_dirac_matrix",
    "RowError",
    "InternalError",
]

BLADES: tuple[tuple[int, ...], ...] = (
    (),
    (0,), (1,), (2,), (3,),
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    (0, 1, 2, 3),
)
BLADE_INDEX: dict[tuple[int, ...], int] = {b: i for i, b in enumerate(BLADES)}
BLADE_NAMES: tuple[str, ...] = tuple(
    "1" if not b else "e" + "".join(str(i) for i in b) for b in BLADES
)
BLADE_GRADES: tuple[int, ...] = tuple(len(b) for b in BLADES)
DIM = 16


class RowError(ValueError):
    """A batched computation that fails for some rows of its batch.

    rows is a boolean mask over the batch shape marking the failing rows (a
    0-d True for a single item), so a caller can report them and compute the
    others; for a single item this is an ordinary ValueError.
    """

    def __init__(self, message: str, rows) -> None:
        super().__init__(message)
        self.rows = np.asarray(rows, dtype=bool)


class InternalError(RuntimeError):
    """A result that breaks an invariant the code guarantees: a fault of the
    program, not of its input."""


def _unbox(x):
    """Python scalar for a 0-d result, the array itself for a batch."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


class _Stacked:
    """Base of the frozen dataclasses held as one read-only (..., n) float
    array: field k is entry k of its last axis, a float for a single item
    and a view of the array for a batch.  Equality compares the arrays."""

    def __post_init__(self) -> None:
        fields = np.broadcast_arrays(*(getattr(self, name) for name in self.__dataclass_fields__))
        self._adopt(np.stack(fields, axis=-1).astype(float))

    def _adopt(self, v: np.ndarray) -> None:
        v.flags.writeable = False
        parts = v.tolist() if v.ndim == 1 else [v[..., k] for k in range(v.shape[-1])]
        self.__dict__.update(zip(self.__dataclass_fields__, parts), _stack=v)

    @classmethod
    def _of(cls, v: np.ndarray):
        """The item that keeps the float array v as its stack()."""
        item = object.__new__(cls)
        item._adopt(v)
        return item

    def stack(self) -> np.ndarray:
        return self._stack

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and np.array_equal(self._stack, other._stack)

    def isclose(self, other, tol: float = 1e-12) -> bool:
        """Whether every entry of every row is within tol."""
        return bool(np.max(np.abs(self._stack - other._stack)) <= tol)


class Signature(enum.Enum):
    """Metric signature tag; fixes the squares of the four generators."""

    MINKOWSKI = "minkowski"
    EUCLIDEAN = "euclidean"

    @property
    def metric(self) -> tuple[float, float, float, float]:
        if self is Signature.MINKOWSKI:
            return (1.0, -1.0, -1.0, -1.0)
        return (1.0, 1.0, 1.0, 1.0)


# each blade as a bitmask with bit g set for generator g, and the blade of each mask
_MASKS = np.array([sum(1 << g for g in b) for b in BLADES])
_BY_MASK = np.empty(DIM, dtype=np.intp)
_BY_MASK[_MASKS] = np.arange(DIM)


@functools.lru_cache(maxsize=None)
def _product_table(signature: Signature) -> tuple[np.ndarray, np.ndarray]:
    """(16, 16) tables with blade_i blade_j = sign[i, j] * blade_{index[i, j]}.

    The product's generators are the symmetric difference of the masks.
    Sorting a + b takes one transposition per pair x in a, y in b with x > y;
    each shared generator then contracts to its square metric[g].  Each row
    and each column of index is a permutation of the 16 blades.
    """
    bits = _MASKS[:, None] >> np.arange(4) & 1
    above = bits[:, ::-1].cumsum(axis=1)[:, ::-1] - bits   # generators of blade i above g
    swaps = (above[:, None, :] * bits[None, :, :]).sum(axis=-1)
    shared = bits[:, None, :] & bits[None, :, :]
    sign = (-1.0) ** swaps * np.where(shared == 1, signature.metric, 1.0).prod(axis=-1)
    index = _BY_MASK[_MASKS[:, None] ^ _MASKS[None, :]]
    index.flags.writeable = False
    sign.flags.writeable = False
    return index, sign


@functools.lru_cache(maxsize=None)
def _mul_gather(signature: Signature, right: bool) -> tuple[np.ndarray, np.ndarray]:
    """(source, sign) with M[k, j] = sign[k, j] * coeffs[source[k, j]] for the
    left (or right) multiplication matrix M of a multivector with coefficients
    coeffs: the product table read by output blade."""
    index, sign = _product_table(signature)
    if right:
        index, sign = index.T, sign.T
    source = np.argsort(index, axis=0)
    gathered = np.take_along_axis(sign, source, axis=0)
    source.flags.writeable = False
    gathered.flags.writeable = False
    return source, gathered


_REVERSION_SIGNS = np.array([(-1.0) ** (k * (k - 1) // 2) for k in BLADE_GRADES])
_GRADE_MASKS = {k: np.array([g == k for g in BLADE_GRADES]) for k in range(5)}


@dataclass(frozen=True)
class Multivector:
    """Immutable multivector: complex blade coefficients plus a signature.

    coeffs has shape (..., 16): the leading axes are a batch of multivectors
    sharing the signature, and shape (16,) is a single one.
    """

    signature: Signature
    coeffs: np.ndarray

    # an array times a multivector scales it row by row (see _scale)
    # instead of numpy broadcasting over the multivector as an object
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape[-1:] != (DIM,):
            raise ValueError(f"expected {DIM} blade coefficients, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _of(cls, signature: Signature, coeffs: np.ndarray) -> "Multivector":
        """The multivector that keeps coeffs, an engine result: a fresh
        complex (..., 16) array, with no copy and no check."""
        coeffs.flags.writeable = False
        mv = object.__new__(cls)
        mv.__dict__.update(signature=signature, coeffs=coeffs)
        return mv

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_signature(other)
        return Multivector._of(self.signature, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_signature(other)
        return Multivector._of(self.signature, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector._of(self.signature, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self._scale(other)

    def __rmul__(self, other) -> "Multivector":
        return self._scale(other)

    def _scale(self, factor) -> "Multivector":
        """Scale by a number, or row by row by an array of the batch shape."""
        return Multivector._of(self.signature, self.coeffs * np.asarray(factor, dtype=np.complex128)[..., None])

    def _check_signature(self, other: "Multivector") -> None:
        if self.signature is not other.signature:
            raise ValueError(
                f"signature mismatch: {self.signature.value} vs {other.signature.value}"
            )

    # -- involutions and projections --------------------------------------

    def reverse(self) -> "Multivector":
        return Multivector._of(self.signature, self.coeffs * _REVERSION_SIGNS)

    def conjugate(self) -> "Multivector":
        """Complex conjugation of the blade coefficients."""
        return Multivector._of(self.signature, self.coeffs.conj())

    def grade(self, k: int) -> "Multivector":
        return grade_projection(self, k)

    @property
    def scalar_part(self) -> complex:
        return _unbox(self.coeffs[..., 0])

    def norm(self) -> float:
        """Euclidean 2-norm of the coefficient vector."""
        return _unbox(np.sqrt((self.coeffs.conj() * self.coeffs).real.sum(axis=-1)))

    def max_abs(self) -> float:
        return _unbox(np.abs(self.coeffs).max(axis=-1))

    def isclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        """Whether every coefficient of every row is within tol."""
        self._check_signature(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __repr__(self) -> str:
        if self.coeffs.ndim > 1:
            return f"<batch of {self.coeffs.shape[:-1]} [{self.signature.value}]>"
        terms = []
        for name, c in zip(BLADE_NAMES, self.coeffs):
            if c != 0:
                if c.imag == 0:
                    terms.append(f"{c.real:+g}*{name}")
                else:
                    terms.append(f"({c:+g})*{name}")
        body = " ".join(terms) if terms else "0"
        return f"<{body} [{self.signature.value}]>"


# -- constructors ---------------------------------------------------------


def zero(signature: Signature = Signature.MINKOWSKI) -> Multivector:
    return Multivector(signature, np.zeros(DIM, dtype=np.complex128))


def scalar(value: complex, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    """Scalar multivector; an array of values gives a batch of that shape."""
    c = np.zeros(np.shape(value) + (DIM,), dtype=np.complex128)
    c[..., 0] = value
    return Multivector(signature, c)


def blade(
    indices: tuple[int, ...],
    coeff: complex = 1.0,
    signature: Signature = Signature.MINKOWSKI,
) -> Multivector:
    """Basis blade from an ascending generator index tuple, e.g. (0, 1) for e0e1."""
    key = tuple(indices)
    if key not in BLADE_INDEX:
        raise ValueError(f"not a canonical blade index tuple: {indices}")
    c = np.zeros(DIM, dtype=np.complex128)
    c[BLADE_INDEX[key]] = coeff
    return Multivector(signature, c)


def basis_vector(mu: int, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    if not 0 <= mu <= 3:
        raise ValueError(f"generator index out of range: {mu}")
    return blade((mu,), 1.0, signature)


def pseudoscalar(signature: Signature = Signature.MINKOWSKI) -> Multivector:
    return blade((0, 1, 2, 3), 1.0, signature)


def from_blade_dict(
    data: dict[tuple[int, ...], complex],
    signature: Signature = Signature.MINKOWSKI,
) -> Multivector:
    c = np.zeros(DIM, dtype=np.complex128)
    for key, value in data.items():
        c[BLADE_INDEX[tuple(key)]] = value
    return Multivector(signature, c)


# -- core operations ------------------------------------------------------


def _mul_matrix(a: Multivector, right: bool) -> np.ndarray:
    """(..., 16, 16) stack of the left (or right) multiplication matrices of
    a: entry [index[i, j], j] of L is sign[i, j] a_i, and R uses the
    transposed table.  Each column of index is a permutation, so every entry
    is one signed coefficient, gathered in a single pass."""
    source, sign = _mul_gather(a.signature, right)
    return sign * np.take(a.coeffs, source, axis=-1)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """a b, broadcasting the batch shapes of a and b against each other."""
    a._check_signature(b)
    return Multivector._of(a.signature, np.matmul(_mul_matrix(a, False), b.coeffs[..., None])[..., 0])


def left_mul_matrix(a: Multivector) -> np.ndarray:
    """Matrix L with (a b).coeffs = L @ b.coeffs; (..., 16, 16) for a batch."""
    return _mul_matrix(a, False)


def right_mul_matrix(a: Multivector) -> np.ndarray:
    """Matrix R with (b a).coeffs = R @ b.coeffs; (..., 16, 16) for a batch."""
    return _mul_matrix(a, True)


def reversion(a: Multivector) -> Multivector:
    """Grade involution with the grade-k part scaled by (-1)^(k(k-1)/2)."""
    return a.reverse()


def grade_projection(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= 4:
        raise ValueError(f"grade out of range: {k}")
    return Multivector._of(a.signature, np.where(_GRADE_MASKS[k], a.coeffs, 0.0))


def adjoint_dagger(a: Multivector) -> Multivector:
    """Adjoint e0 * reverse(conj(a)) * e0; matches Hermitian conjugation of the
    matrix image in any representation with g0 Hermitian and gk anti-Hermitian."""
    if a.signature is not Signature.MINKOWSKI:
        raise ValueError("adjoint is defined for the Minkowski signature only")
    e0 = basis_vector(0, a.signature)
    return e0 * a.conjugate().reverse() * e0


# -- matrix representations ------------------------------------------------

_S1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_S3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = (_S1, _S2, _S3)
_I2 = np.eye(2, dtype=np.complex128)
_O2 = np.zeros((2, 2), dtype=np.complex128)


def _block(a, b, c, d) -> np.ndarray:
    m = np.block([[a, b], [c, d]])
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class GammaRep:
    """Four 4x4 generator matrices for a concrete spinor representation."""

    tag: str
    gammas: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


WEYL = GammaRep(
    "weyl",
    (
        _block(_O2, _I2, _I2, _O2),
        _block(_O2, _S1, -_S1, _O2),
        _block(_O2, _S2, -_S2, _O2),
        _block(_O2, _S3, -_S3, _O2),
    ),
)

# chosen so that the complexified idempotent is represented by the matrix unit E11
DIRAC = GammaRep(
    "dirac",
    (
        _block(_I2, _O2, _O2, -_I2),
        _block(_O2, _S1, -_S1, _O2),
        _block(_O2, _S2, -_S2, _O2),
        _block(_O2, _S3, -_S3, _O2),
    ),
)

_REP_BY_TAG = {"weyl": WEYL, "dirac": DIRAC}


def rep_by_tag(tag: str) -> GammaRep:
    try:
        return _REP_BY_TAG[tag]
    except KeyError:
        raise ValueError(f"unknown representation tag: {tag!r}") from None


@functools.lru_cache(maxsize=None)
def _blade_matrices(rep: GammaRep) -> np.ndarray:
    """(16, 4, 4) stack of blade images, products taken in canonical order:
    every blade holding generator g takes its factor gamma_g in turn."""
    mats = np.broadcast_to(np.eye(4, dtype=np.complex128), (DIM, 4, 4))
    for g, gamma in enumerate(rep.gammas):
        mats = np.where((_MASKS >> g & 1).astype(bool)[:, None, None], mats @ gamma, mats)
    mats.flags.writeable = False
    return mats


def rep_matrix(a: Multivector, rep: GammaRep = WEYL) -> np.ndarray:
    """4x4 complex image of a Minkowski multivector under e_mu -> gamma_mu;
    (..., 4, 4) for a batch."""
    if a.signature is not Signature.MINKOWSKI:
        raise ValueError("matrix representation requires the Minkowski signature")
    return np.einsum("...k,kij->...ij", a.coeffs, _blade_matrices(rep))


def idempotent_f(complexified: bool = False) -> Multivector:
    """Primitive idempotent (1 + e0)/2, or its complexified refinement
    (1 + e0)(1 + i e1e2)/4 generating the spinor ideal."""
    one = scalar(1.0)
    f = 0.5 * (one + basis_vector(0))
    if not complexified:
        return f
    return f * (0.5 * (one + blade((1, 2), 1j)))


_WEYL_TO_DIRAC = np.block([[_I2, _I2], [-_I2, _I2]]) / np.sqrt(2.0)
_WEYL_TO_DIRAC.flags.writeable = False


def weyl_to_dirac_matrix() -> np.ndarray:
    """Unitary U with U gamma_weyl U^dagger = gamma_dirac (acts on components);
    one shared read-only array."""
    return _WEYL_TO_DIRAC
